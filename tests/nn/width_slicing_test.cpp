// Width slicing, fp32: every op of both families at factors 0.1 / 0.5 /
// 1.0, in kTrain (forward + backward), kScore, kEval and kEvalFused, at
// global pool sizes 1, 2 and 4, equals a block built at the active width
// bit for bit — outputs, input gradients and the active slices of every
// parameter gradient — while inactive gradients stay exactly +0 and
// inactive BatchNorm running statistics keep their initial values.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tests/core/pool_guard.h"
#include "tests/nn/width_slicing_cases.h"

namespace hsconas::nn::slicing {
namespace {

using tensor::Tensor;

void check_params(Reference& ref, const std::string& tag) {
  for (auto& [full, narrow] : ref.pairs) {
    if (auto* conv = dynamic_cast<Conv2d*>(full)) {
      expect_window_grads(conv->weight(),
                          dynamic_cast<Conv2d*>(narrow)->weight(),
                          tag + " " + conv->name());
      continue;
    }
    auto* bn = dynamic_cast<BatchNorm2d*>(full);
    auto* nbn = dynamic_cast<BatchNorm2d*>(narrow);
    ASSERT_NE(nullptr, bn);
    expect_window_grads(bn->gamma(), nbn->gamma(), tag + " " + bn->name());
    expect_window_grads(bn->beta(), nbn->beta(), tag + " " + bn->name());
    for (long c = 0; c < bn->channels(); ++c) {
      const float mean = bn->running_mean().at(c);
      const float var = bn->running_var().at(c);
      if (c < nbn->channels()) {
        EXPECT_EQ(0, std::memcmp(&mean, &nbn->running_mean().data()[c], 4));
        EXPECT_EQ(0, std::memcmp(&var, &nbn->running_var().data()[c], 4));
      } else {
        // Untouched by the sliced train forward: still (0, 1) exactly.
        const float zero = 0.0f, one = 1.0f;
        EXPECT_EQ(0, std::memcmp(&mean, &zero, 4)) << tag << " " << c;
        EXPECT_EQ(0, std::memcmp(&var, &one, 4)) << tag << " " << c;
      }
    }
  }
}

void check_case(OpFamily family, int op, const BlockShape& s, double factor) {
  auto block = make_block(family, op, s, 900 + static_cast<std::uint64_t>(op));
  const long active = block->active_mid_channels(factor);
  Reference ref(*block, family, op, s, active);
  util::Rng rng(31);
  const Tensor x = Tensor::uniform({3, s.in, 6, 6}, -1.0f, 1.0f, rng);

  // kTrain: forward, backward, every gradient and running statistic.
  block->set_mode(Mode::kTrain);
  ref.set_mode(Mode::kTrain);
  const Tensor y = block->forward(x, factor);
  ASSERT_TRUE(same_bits(y, ref.forward(x))) << "train forward";
  const Tensor dy = Tensor::uniform(y.shape(), -1.0f, 1.0f, rng);
  ASSERT_TRUE(same_bits(block->backward(dy), ref.backward(dy)))
      << "input grad";
  check_params(ref, "train");

  for (const Mode mode : {Mode::kScore, Mode::kEval, Mode::kEvalFused}) {
    block->set_mode(mode);
    ref.set_mode(mode);
    ASSERT_TRUE(same_bits(block->forward(x, factor), ref.forward(x)))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(WidthSlicing, EveryOpEveryModeMatchesABlockBuiltAtTheActiveWidth) {
  for (const std::size_t pool : {1u, 2u, 4u}) {
    testutil::PoolGuard guard(pool);
    for (const OpFamily family : kFamilies) {
      for (int op = 0; op < family_num_ops(family); ++op) {
        for (const BlockShape& s : kShapes) {
          for (const double factor : kFactors) {
            SCOPED_TRACE(std::string(family_op_name(family, op)) + " in " +
                         std::to_string(s.in) + " stride " +
                         std::to_string(s.stride) + " factor " +
                         std::to_string(factor) + " pool " +
                         std::to_string(pool));
            check_case(family, op, s, factor);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(WidthSlicing, ConvReadsTheLeadingWindowOfItsWeights) {
  // A 3×3 conv at 3 of 8 input channels producing 2 of 6 outputs equals a
  // dense 3→2 conv over the copied window, and its backward writes only
  // the window of the weight gradient.
  util::Rng rng(32);
  std::vector<std::pair<Module*, Module*>> pairs;
  Sequential stage;
  stage.add(std::make_unique<Conv2d>(8, 6, 3, 1, 1, 1, false, rng));
  auto narrow = narrow_copy(stage, 3, 2, pairs);
  auto& full = dynamic_cast<Conv2d&>(stage.child(0));
  auto& dense = dynamic_cast<Conv2d&>(narrow->child(0));
  const Tensor x = Tensor::uniform({2, 3, 5, 5}, -1.0f, 1.0f, rng);
  const Tensor y = full.forward(x, 2);
  ASSERT_TRUE(same_bits(y, dense.forward(x)));
  const Tensor dy = Tensor::uniform(y.shape(), -1.0f, 1.0f, rng);
  ASSERT_TRUE(same_bits(full.backward(dy), dense.backward(dy)));
  expect_window_grads(full.weight(), dense.weight(), "conv");
  EXPECT_THROW(full.forward(Tensor({2, 9, 5, 5}), 2), InvalidArgument);
  EXPECT_THROW(full.forward(x, 7), InvalidArgument);
}

TEST(WidthSlicing, OutputsWrittenInFullIgnorePoisonedPoolBlocks) {
  // Conv, depthwise and BatchNorm outputs are built without a zero fill,
  // since every element is written: parking NaN-filled blocks of the
  // output's size class right before a forward must not change a bit.
  testutil::PoolGuard guard(1);  // every block on this thread's pool
  util::Rng rng(33);
  Sequential net;
  net.add(std::make_unique<Conv2d>(8, 8, 1, 1, 0, 1, false, rng));
  net.add(std::make_unique<Conv2d>(8, 6, 3, 2, 1, 1, true, rng));
  net.add(std::make_unique<BatchNorm2d>(6));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2d>(6, 6, 3, 1, 1, 6, false, rng));
  const Tensor x = Tensor::uniform({3, 8, 7, 7}, -1.0f, 1.0f, rng);
  for (const Mode mode : {Mode::kTrain, Mode::kScore, Mode::kEval,
                          Mode::kEvalFused}) {
    net.set_mode(mode);
    for (const long out : {0L, 5L}) {  // full width, then sliced
      const Tensor want = net.forward(x, out);
      std::vector<Tensor> poison;
      for (const tensor::ShapeVec& shape :
           {want.shape(), tensor::ShapeVec{3, 8, 7, 7}}) {
        for (int i = 0; i < 4; ++i) {
          poison.push_back(
              Tensor::full(shape, std::numeric_limits<float>::quiet_NaN()));
        }
      }
      const tensor::ShapeVec probe = want.shape();
      poison.clear();  // park the NaN blocks
      ASSERT_TRUE(std::isnan(Tensor::for_overwrite(probe).data()[0]))
          << "the pool should hand a parked block back";
      ASSERT_TRUE(same_bits(want, net.forward(x, out)))
          << "mode " << static_cast<int>(mode) << " out " << out;
    }
  }
}

}  // namespace
}  // namespace hsconas::nn::slicing
