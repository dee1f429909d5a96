// Gradient and behaviour tests for the primitive NN layers.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/mask.h"
#include "nn/pooling.h"
#include "nn/shuffle.h"
#include "tests/nn/grad_check.h"
#include "util/error.h"

namespace hsconas::nn {
namespace {

using tensor::Tensor;
using testutil::grad_check;

// Random input kept away from ReLU kinks so finite differences
// stay on one side of the non-smooth points.
Tensor safe_input(std::vector<long> shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x = Tensor::uniform(std::move(shape), -1.0f, 1.0f, rng);
  for (float& v : x.flat()) {
    if (std::abs(v) < 0.06f) v += v >= 0 ? 0.12f : -0.12f;
  }
  return x;
}

constexpr double kTol = 3e-2;

// ---------------------------------------------------------------- Conv2d --

struct ConvCase {
  long in_ch, out_ch, kernel, stride, pad, groups;
  long h, w;
};

class ConvGrad : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGrad, MatchesFiniteDifferences) {
  const ConvCase c = GetParam();
  util::Rng rng(42);
  Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, c.groups, true,
              rng);
  const auto result =
      grad_check(conv, safe_input({2, c.in_ch, c.h, c.w}, 1), 7);
  EXPECT_LT(result.max_input_rel_err, kTol);
  EXPECT_LT(result.max_param_rel_err, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvGrad,
    ::testing::Values(ConvCase{3, 4, 3, 1, 1, 1, 6, 6},     // dense 3x3
                      ConvCase{4, 6, 1, 1, 0, 1, 5, 5},     // pointwise
                      ConvCase{4, 8, 3, 2, 1, 1, 8, 8},     // stride 2
                      ConvCase{6, 6, 3, 1, 1, 6, 6, 6},     // depthwise
                      ConvCase{4, 6, 3, 1, 1, 2, 6, 6},     // grouped
                      ConvCase{3, 2, 5, 1, 2, 1, 8, 8},     // 5x5
                      ConvCase{6, 6, 7, 2, 3, 6, 9, 9}));   // dw 7x7 s2

TEST(Conv2d, OutputShape) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, 1, false, rng);
  const Tensor y = conv.forward(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (std::vector<long>{2, 8, 8, 8}));
}

TEST(Conv2d, RejectsBadGeometry) {
  util::Rng rng(1);
  EXPECT_THROW(Conv2d(3, 4, 3, 1, 1, 2, false, rng), InvalidArgument);
  EXPECT_THROW(Conv2d(0, 4, 3, 1, 1, 1, false, rng), InvalidArgument);
  Conv2d conv(3, 4, 3, 1, 1, 1, false, rng);
  EXPECT_THROW(conv.forward(Tensor({2, 5, 8, 8})), InvalidArgument);
}

TEST(Conv2d, KnownValueIdentityKernel) {
  util::Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, 1, false, rng);
  conv.weight().value.at(0, 0, 0, 0) = 2.0f;
  Tensor x({1, 1, 2, 2});
  x.at(0, 0, 1, 1) = 3.0f;
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 6.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 0.0f);
}

TEST(Conv2d, MacsCounter) {
  util::Rng rng(1);
  Conv2d conv(8, 16, 3, 1, 1, 1, false, rng);
  // 16 out * 8 in * 9 * 4*4 spatial
  EXPECT_EQ(conv.macs(4, 4), 16L * 8 * 9 * 16);
  Conv2d dw(8, 8, 3, 1, 1, 8, false, rng);
  EXPECT_EQ(dw.macs(4, 4), 8L * 9 * 16);
}

// ------------------------------------------------------------ BatchNorm --

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(3);
  bn.set_mode(Mode::kTrain);
  util::Rng rng(5);
  const Tensor x = Tensor::normal({4, 3, 5, 5}, 3.0f, 2.0f, rng);
  const Tensor y = bn.forward(x);
  // Per-channel mean ~0, var ~1 after normalization with affine identity.
  for (long c = 0; c < 3; ++c) {
    double mean = 0.0, var = 0.0;
    const long count = 4 * 25;
    for (long n = 0; n < 4; ++n) {
      for (long i = 0; i < 25; ++i) {
        mean += y.flat()[static_cast<std::size_t>((n * 3 + c) * 25 + i)];
      }
    }
    mean /= count;
    for (long n = 0; n < 4; ++n) {
      for (long i = 0; i < 25; ++i) {
        const double d =
            y.flat()[static_cast<std::size_t>((n * 3 + c) * 25 + i)] - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, GradCheckTraining) {
  BatchNorm2d bn(4);
  const auto result = grad_check(bn, safe_input({3, 4, 4, 4}, 2), 11);
  EXPECT_LT(result.max_input_rel_err, kTol);
  EXPECT_LT(result.max_param_rel_err, kTol);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(2);
  bn.set_mode(Mode::kTrain);
  util::Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    bn.forward(Tensor::normal({8, 2, 4, 4}, 5.0f, 1.0f, rng));
  }
  EXPECT_NEAR(bn.running_mean().at(0), 5.0f, 0.3f);
  bn.set_mode(Mode::kEval);
  const Tensor y = bn.forward(Tensor::full({1, 2, 1, 1}, 5.0f));
  EXPECT_NEAR(y.at(0, 0, 0, 0), 0.0f, 0.3f);
}

TEST(BatchNorm2d, ResetRunningStats) {
  BatchNorm2d bn(2);
  util::Rng rng(6);
  bn.forward(Tensor::normal({4, 2, 4, 4}, 5.0f, 1.0f, rng));
  bn.reset_running_stats();
  EXPECT_FLOAT_EQ(bn.running_mean().at(0), 0.0f);
  EXPECT_FLOAT_EQ(bn.running_var().at(1), 1.0f);
}

// ----------------------------------------------------------- Activations --

TEST(ReLU, ForwardClampsAndBackwardMasks) {
  ReLU relu;
  Tensor x({1, 1, 1, 4});
  x.flat()[0] = -2.0f;
  x.flat()[1] = 3.0f;
  x.flat()[2] = 0.0f;
  x.flat()[3] = 0.5f;
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y.flat()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.flat()[1], 3.0f);
  const Tensor dx = relu.backward(Tensor::ones(x.shape()));
  EXPECT_FLOAT_EQ(dx.flat()[0], 0.0f);
  EXPECT_FLOAT_EQ(dx.flat()[1], 1.0f);
  EXPECT_FLOAT_EQ(dx.flat()[2], 0.0f);  // relu'(0) = 0 by convention
}

TEST(ReLU, GradCheck) {
  ReLU relu;
  const auto result = grad_check(relu, safe_input({2, 3, 4, 4}, 3), 13);
  EXPECT_LT(result.max_input_rel_err, kTol);
}

TEST(HSwish, KnownValuesAndGrad) {
  HSwish act;
  Tensor x({1, 5});
  x.flat()[0] = -4.0f;  // below -3: exactly 0
  x.flat()[1] = 4.0f;   // above 3: identity
  x.flat()[2] = 0.0f;   // 0 * 3/6 = 0
  x.flat()[3] = 1.5f;
  x.flat()[4] = -1.5f;
  const Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y.flat()[0], 0.0f);
  EXPECT_FLOAT_EQ(y.flat()[1], 4.0f);
  EXPECT_FLOAT_EQ(y.flat()[2], 0.0f);
  EXPECT_FLOAT_EQ(y.flat()[3], 1.5f * 4.5f / 6.0f);

  HSwish act2;
  const auto result = grad_check(act2, safe_input({2, 8}, 4), 17);
  EXPECT_LT(result.max_input_rel_err, kTol);
}

// ----------------------------------------------------------------- Linear --

TEST(Linear, GradCheck) {
  util::Rng rng(9);
  Linear fc(6, 4, rng);
  const auto result = grad_check(fc, safe_input({3, 6}, 5), 19);
  EXPECT_LT(result.max_input_rel_err, kTol);
  EXPECT_LT(result.max_param_rel_err, kTol);
}

TEST(Linear, KnownValue) {
  util::Rng rng(9);
  Linear fc(2, 1, rng);
  fc.weight().value.at(0, 0) = 2.0f;
  fc.weight().value.at(0, 1) = -1.0f;
  fc.bias().value.at(0) = 0.5f;
  Tensor x({1, 2});
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(fc.forward(x).at(0, 0), 2.0f * 3 - 4 + 0.5f);
}

TEST(Linear, RejectsBadShape) {
  util::Rng rng(9);
  Linear fc(2, 1, rng);
  EXPECT_THROW(fc.forward(Tensor({1, 3})), InvalidArgument);
}

// ---------------------------------------------------------------- Pooling --

TEST(GlobalAvgPool, AveragesAndBackpropagatesUniformly) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2});
  for (long i = 0; i < 4; ++i) x.flat()[static_cast<std::size_t>(i)] = static_cast<float>(i);
  const Tensor y = gap.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  Tensor dy({1, 2});
  dy.at(0, 0) = 4.0f;
  const Tensor dx = gap.backward(dy);
  EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 1.0f);
}

TEST(GlobalAvgPool, GradCheck) {
  GlobalAvgPool gap;
  const auto result = grad_check(gap, safe_input({2, 3, 3, 3}, 6), 23);
  EXPECT_LT(result.max_input_rel_err, kTol);
}

// --------------------------------------------------------- Backward state --

// Runs a train forward + backward (which must work), leaves a second train
// forward's state behind, then switches to `mode`: the switch alone must
// drop the state, so backward() fails its "before forward" check rather
// than read stale caches. A forward in `mode` must not bring it back.
void expect_stale_state_dropped(Module& m, const Tensor& x, Mode mode) {
  m.set_mode(Mode::kTrain);
  const Tensor y = m.forward(x);
  m.backward(y);
  m.forward(x);
  m.set_mode(mode);
  EXPECT_THROW(m.backward(y), InternalError) << m.name() << " after set_mode";
  m.set_mode(Mode::kTrain);
  m.forward(x);
  m.set_mode(mode);
  m.forward(x);
  EXPECT_THROW(m.backward(y), InternalError) << m.name();
}

class BackwardState : public ::testing::TestWithParam<Mode> {};

TEST_P(BackwardState, ForwardOutsideTrainModeDropsIt) {
  const Mode mode = GetParam();
  util::Rng rng(29);
  const Tensor image = safe_input({2, 4, 6, 6}, 30);
  Conv2d conv(4, 4, 3, 1, 1, 1, true, rng);
  Conv2d depthwise(4, 4, 3, 1, 1, 4, false, rng);
  BatchNorm2d bn(4);
  ReLU relu;
  HSwish hswish;
  GlobalAvgPool gap;
  for (Module* m : std::initializer_list<Module*>{
           &conv, &depthwise, &bn, &relu, &hswish, &gap}) {
    expect_stale_state_dropped(*m, image, mode);
  }
  Linear lin(5, 3, rng);
  expect_stale_state_dropped(lin, safe_input({2, 5}, 31), mode);
}

INSTANTIATE_TEST_SUITE_P(ScoreAndEval, BackwardState,
                         ::testing::Values(Mode::kScore, Mode::kEval,
                                           Mode::kEvalFused),
                         [](const ::testing::TestParamInfo<Mode>& p) {
                           switch (p.param) {
                             case Mode::kScore:
                               return "score";
                             case Mode::kEvalFused:
                               return "eval_fused";
                             default:
                               return "eval";
                           }
                         });

// ---------------------------------------------------------------- Shuffle --

TEST(ChannelInterleave, PermutationAndInverse) {
  Tensor a({1, 2, 1, 1}), b({1, 2, 1, 1});
  a.at(0, 0, 0, 0) = 0.0f;
  a.at(0, 1, 0, 0) = 1.0f;
  b.at(0, 0, 0, 0) = 2.0f;
  b.at(0, 1, 0, 0) = 3.0f;
  // shuffle(concat(a, b)) with 2 groups: [0,1,2,3] -> [0,2,1,3].
  const Tensor y = interleave_channels(a, b);
  ASSERT_EQ(y.shape(), (std::vector<long>{1, 4, 1, 1}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3, 0, 0), 3.0f);
  // deinterleave is the inverse permutation: the round trip restores both
  // halves.
  Tensor back_a, back_b;
  deinterleave_channels(y, back_a, back_b);
  for (long c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(back_a.at(0, c, 0, 0), a.at(0, c, 0, 0));
    EXPECT_FLOAT_EQ(back_b.at(0, c, 0, 0), b.at(0, c, 0, 0));
  }
}

TEST(ChannelInterleave, RejectsMismatchedHalves) {
  // a narrower than b, a spatial mismatch, and an odd channel count.
  EXPECT_THROW(interleave_channels(Tensor({1, 1, 2, 2}), Tensor({1, 2, 2, 2})),
               InvalidArgument);
  EXPECT_THROW(interleave_channels(Tensor({1, 2, 2, 2}), Tensor({1, 2, 3, 3})),
               InvalidArgument);
  Tensor l, r;
  EXPECT_THROW(deinterleave_channels(Tensor({1, 3, 2, 2}), l, r),
               InvalidArgument);
}

TEST(SplitConcat, RoundTrip) {
  util::Rng rng(10);
  const Tensor x = Tensor::uniform({2, 6, 3, 3}, -1, 1, rng);
  const Tensor left = slice_channels(x, 0, 2);
  const Tensor right = slice_channels(x, 2, 4);
  EXPECT_EQ(left.shape(), (std::vector<long>{2, 2, 3, 3}));
  EXPECT_EQ(right.shape(), (std::vector<long>{2, 4, 3, 3}));
  const Tensor back = concat_channels(left, right);
  for (long i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(back.flat()[static_cast<std::size_t>(i)],
                    x.flat()[static_cast<std::size_t>(i)]);
  }
}

TEST(SplitConcat, Validation) {
  Tensor x({1, 4, 2, 2});
  EXPECT_THROW(slice_channels(x, 0, 0), InvalidArgument);
  EXPECT_THROW(slice_channels(x, -1, 2), InvalidArgument);
  EXPECT_THROW(slice_channels(x, 2, 3), InvalidArgument);
  EXPECT_THROW(concat_channels(Tensor({1, 2, 2, 2}), Tensor({1, 2, 3, 3})),
               InvalidArgument);
}

TEST(ScaledChannels, PaperRounding) {
  // The paper's example: 5 × 0.5 ≈ 3 (round half up).
  EXPECT_EQ(scaled_channels(5, 0.5), 3);
  EXPECT_EQ(scaled_channels(10, 0.1), 1);
  EXPECT_EQ(scaled_channels(10, 1.0), 10);
  EXPECT_EQ(scaled_channels(3, 0.01), 1);  // clamped to >= 1
  EXPECT_EQ(scaled_channels(64, 0.3), 19);
}

}  // namespace
}  // namespace hsconas::nn
