// One standalone network, many concurrent eval forwards: the contract that
// lets every serving lane share a single frozen network. An eval forward
// writes nothing into the network, so four threads forwarding at once
// must produce exactly the logits of a serial forward — in both eval
// flavours, fp32 and int8-calibrated. In the `serving` label, so the
// TSan CI stage re-runs it.

#include <cstddef>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/arch.h"
#include "core/search_space.h"
#include "core/supernet.h"
#include "util/rng.h"

namespace {

using namespace hsconas;

using SharedCase = std::tuple<nn::Mode, bool /*int8*/>;

class SharedNetwork : public ::testing::TestWithParam<SharedCase> {};

TEST_P(SharedNetwork, ConcurrentForwardsEqualSerial) {
  const auto [mode, int8] = GetParam();
  const core::SearchSpace space(core::SearchSpaceConfig::proxy());
  util::Rng rng(5);
  const core::Arch arch = core::Arch::random(space, rng);
  core::Supernet net(space, 21, arch);
  net.set_mode(mode);

  const auto& sc = space.config();
  auto batch = [&] {
    return tensor::Tensor::uniform(
        {2, sc.input_channels, sc.input_size, sc.input_size}, -1.0f, 1.0f,
        rng);
  };
  if (int8) {
    ASSERT_GT(net.calibrate_quant({batch(), batch()}), 0u);
  }

  constexpr std::size_t kInputs = 6;
  std::vector<tensor::Tensor> inputs, serial;
  for (std::size_t i = 0; i < kInputs; ++i) {
    inputs.push_back(batch());
    serial.push_back(net.forward(inputs.back()));
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<tensor::Tensor>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different input, so different layers
      // overlap across threads.
      for (std::size_t k = 0; k < kInputs; ++k) {
        got[t].push_back(net.forward(inputs[(t + k) % kInputs]));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < kInputs; ++k) {
      const tensor::Tensor& want = serial[(t + k) % kInputs];
      const tensor::Tensor& have = got[t][k];
      ASSERT_EQ(have.shape(), want.shape());
      for (long j = 0; j < want.numel(); ++j) {
        EXPECT_EQ(have.data()[j], want.data()[j])
            << "thread " << t << " input " << (t + k) % kInputs << " logit "
            << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EvalFlavours, SharedNetwork,
    ::testing::Combine(::testing::Values(nn::Mode::kEval,
                                         nn::Mode::kEvalFused),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SharedCase>& p) {
      const std::string mode =
          std::get<0>(p.param) == nn::Mode::kEvalFused ? "eval_fused"
                                                       : "eval";
      return mode + (std::get<1>(p.param) ? "_int8" : "_f32");
    });

}  // namespace
