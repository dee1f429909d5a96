// Read-only candidate scoring. Score mode must compute exactly the logits
// and top-1 a train-mode forward computes, while writing no module state:
// the BatchNorm running statistics stay as they were, nothing is kept for
// backward() and the mode is not touched, at any pool size. The
// hsconas.nn.backward_state_bytes counter stays flat across
// Supernet::evaluate and across a serving window.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "core/supernet.h"
#include "nn/batchnorm.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "serve/batch_server.h"
#include "tests/core/pool_guard.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsconas::core {
namespace {

using tensor::Tensor;
using testutil::PoolGuard;

constexpr const char* kBackwardState = "hsconas.nn.backward_state_bytes";

std::uint64_t backward_state_bytes() {
  return obs::counter(kBackwardState).value();
}

data::SyntheticDataset proxy_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.train_size = 72;
  cfg.val_size = 72;
  cfg.image_size = 12;
  cfg.seed = 41;
  return data::SyntheticDataset(cfg);
}

/// Seeded gamma and beta for every BatchNorm, so that two nets built
/// alike stay alike but BN's affine step is not the identity.
void randomize_bn_affine(Supernet& net) {
  util::Rng rng(31);
  net.visit([&](nn::Module& m) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      for (float& g : bn->gamma().value.flat()) {
        g = static_cast<float>(rng.uniform(0.5, 1.5));
      }
      for (float& b : bn->beta().value.flat()) {
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
  });
}

/// Every BatchNorm running mean and variance, in visit order.
std::vector<float> running_stats(Supernet& net) {
  std::vector<float> out;
  net.visit([&](nn::Module& m) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      for (const Tensor* t : {&bn->running_mean(), &bn->running_var()}) {
        out.insert(out.end(), t->data(), t->data() + t->numel());
      }
    }
  });
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

struct ScoreCase {
  nn::OpFamily family;
  std::size_t threads;
};

// Names the case in test listings (the default printer would dump the
// struct's bytes, padding included).
void PrintTo(const ScoreCase& c, std::ostream* os) {
  *os << nn::family_name(c.family) << " at pool size " << c.threads;
}

class ScoreMode : public ::testing::TestWithParam<ScoreCase> {};

TEST_P(ScoreMode, MatchesTrainForwardBitForBit) {
  const ScoreCase param = GetParam();
  PoolGuard pool(param.threads);
  const SearchSpace space(
      SearchSpaceConfig::proxy(6, 12, 1).with_family(param.family));
  const data::SyntheticDataset dataset = proxy_dataset();
  util::Rng rng(17);
  constexpr std::size_t kBatch = 36, kBatches = 2;

  for (int trial = 0; trial < 3; ++trial) {
    const Arch arch = Arch::random(space, rng);
    Supernet trained(space, 5), scored(space, 5);
    randomize_bn_affine(trained);
    randomize_bn_affine(scored);

    // Top-1: evaluate() against the same loop run in train mode, which
    // moves the running stats; scoring leaves them as they were.
    const std::vector<float> initial_stats = running_stats(scored);
    trained.set_mode(nn::Mode::kTrain);
    data::DataLoader loader(dataset, kBatch, /*train=*/false, /*seed=*/0);
    std::size_t correct = 0, total = 0;
    for (std::size_t b = 0; b < kBatches; ++b) {
      const data::Batch batch = loader.batch(b);
      const Tensor logits = trained.forward(batch.images, arch);
      correct += nn::cross_entropy(logits, batch.labels).correct_top1;
      total += batch.labels.size();
    }
    ASSERT_FALSE(same_bits(running_stats(trained), initial_stats))
        << "the train forwards must move the running stats, trial " << trial;
    scored.set_mode(nn::Mode::kScore);
    const double top1 = scored.evaluate(dataset, arch, kBatch, kBatches);
    EXPECT_EQ(top1, static_cast<double>(correct) / static_cast<double>(total));
    EXPECT_EQ(nn::Mode::kScore, scored.mode());
    EXPECT_TRUE(same_bits(running_stats(scored), initial_stats))
        << "running stats after evaluate, trial " << trial;

    // Logits of one more batch, score mode against train mode.
    const data::Batch batch = loader.batch(0);
    const Tensor train_logits = trained.forward(batch.images, arch);
    const Tensor score_logits = scored.forward(batch.images, arch);
    EXPECT_TRUE(same_bits(train_logits, score_logits))
        << "logits, trial " << trial;
    EXPECT_TRUE(same_bits(running_stats(scored), initial_stats))
        << "running stats after forward, trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPools, ScoreMode,
    ::testing::Values(ScoreCase{nn::OpFamily::kShuffleV2, 1},
                      ScoreCase{nn::OpFamily::kShuffleV2, 3},
                      ScoreCase{nn::OpFamily::kMbConv, 1},
                      ScoreCase{nn::OpFamily::kMbConv, 3}),
    [](const ::testing::TestParamInfo<ScoreCase>& p) {
      return std::string(nn::family_name(p.param.family)) + "_pool" +
             std::to_string(p.param.threads);
    });

TEST(BackwardStateBytes, FlatAcrossEvaluateAndServing) {
  const SearchSpace space(SearchSpaceConfig::proxy(6, 12, 1));
  const data::SyntheticDataset dataset = proxy_dataset();
  util::Rng rng(23);
  const Arch arch = Arch::random(space, rng);
  Supernet net(space, 5);

  // A train forward stores backward state; scoring stores none.
  std::uint64_t before = backward_state_bytes();
  data::DataLoader loader(dataset, 36, /*train=*/true, /*seed=*/0);
  net.forward(loader.batch(0).images, arch);
  EXPECT_GT(backward_state_bytes(), before);

  before = backward_state_bytes();
  net.set_mode(nn::Mode::kScore);
  net.evaluate(dataset, arch, 36, 2);
  EXPECT_EQ(before, backward_state_bytes());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::BatchServer server(space, arch, cfg);
  std::vector<float> input(server.input_size(), 0.25f);
  std::vector<float> output(server.output_size());
  before = backward_state_bytes();
  for (int i = 0; i < 8; ++i) server.infer(input, output);
  EXPECT_EQ(before, backward_state_bytes());
}

}  // namespace
}  // namespace hsconas::core
