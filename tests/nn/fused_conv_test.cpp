// Fused conv→BN→activation epilogue parity suite. A kEvalFused
// Sequential — the one fusion entry point — folds eval-mode BN (and the
// conv bias) into a per-channel affine applied inside the GEMM writeback;
// these tests pin it against the composed module pipeline across strides,
// padding, groups, depthwise and both activations — including the case
// where the fold is arithmetically exact (gamma == 1, running_mean == 0,
// no conv bias: tolerance 0) — plus which modes fuse and thread-count
// determinism.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsconas::nn {
namespace {

using tensor::EpilogueAct;
using tensor::Tensor;

/// Populate running statistics (and perturb gamma/beta) so the eval-mode
/// fold has non-trivial terms: one training-mode forward pushes data
/// through the momentum update, then randomized affine params.
void randomize_bn(BatchNorm2d& bn, const Tensor& warmup, util::Rng& rng) {
  bn.set_mode(Mode::kTrain);
  (void)bn.forward(warmup);
  bn.set_mode(Mode::kEval);
  for (long c = 0; c < bn.channels(); ++c) {
    bn.gamma().value.at(c) = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.beta().value.at(c) = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
}

Tensor composed_forward(Conv2d& conv, BatchNorm2d& bn, EpilogueAct act,
                        const Tensor& x) {
  Tensor y = bn.forward(conv.forward(x));
  if (act == EpilogueAct::kReLU) {
    ReLU relu;
    relu.set_mode(Mode::kEval);
    return relu.forward(y);
  }
  if (act == EpilogueAct::kHSwish) {
    HSwish hswish;
    hswish.set_mode(Mode::kEval);
    return hswish.forward(y);
  }
  return y;
}

/// Append the activation of a conv → BN [→ act] chain to `seq`.
void add_act(Sequential& seq, EpilogueAct act) {
  if (act == EpilogueAct::kReLU) seq.add(std::make_unique<ReLU>());
  if (act == EpilogueAct::kHSwish) seq.add(std::make_unique<HSwish>());
}

/// The fused path: the whole chain in kEvalFused.
Tensor fused_forward(Sequential& seq, const Tensor& x) {
  seq.set_mode(Mode::kEvalFused);
  return seq.forward(x);
}

struct ConvCase {
  long in_ch, out_ch, kernel, stride, pad, groups;
  bool bias;
  EpilogueAct act;
};

// Strided, padded, grouped, depthwise (both kernels/strides), both
// activations, with and without conv bias.
const ConvCase kCases[] = {
    {8, 12, 3, 1, 1, 1, true, EpilogueAct::kReLU},
    {8, 12, 3, 2, 0, 1, true, EpilogueAct::kHSwish},
    {8, 12, 1, 1, 0, 4, false, EpilogueAct::kReLU},
    {6, 6, 3, 1, 1, 6, true, EpilogueAct::kReLU},     // depthwise
    {6, 6, 5, 2, 2, 6, false, EpilogueAct::kHSwish},  // depthwise strided
    {8, 12, 3, 1, 2, 2, false, EpilogueAct::kNone},   // over-padded, grouped
};

TEST(FusedConv, MatchesComposedModulesAcrossGeometries) {
  std::uint64_t seed = 200;
  for (const ConvCase& c : kCases) {
    util::Rng rng(++seed);
    Sequential seq;
    Conv2d& conv = *seq.add(std::make_unique<Conv2d>(
        c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, c.groups, c.bias, rng));
    if (c.bias) {
      for (long i = 0; i < c.out_ch; ++i) {
        conv.bias()->value.at(i) = static_cast<float>(rng.uniform(-0.3, 0.3));
      }
    }
    BatchNorm2d& bn = *seq.add(std::make_unique<BatchNorm2d>(c.out_ch));
    add_act(seq, c.act);
    conv.set_mode(Mode::kEval);
    const Tensor x = Tensor::uniform({3, c.in_ch, 9, 9}, -1, 1, rng);
    randomize_bn(bn, conv.forward(x), rng);

    const Tensor want = composed_forward(conv, bn, c.act, x);
    const Tensor got = fused_forward(seq, x);
    ASSERT_EQ(got.shape(), want.shape());
    for (long i = 0; i < got.numel(); ++i) {
      // The fold refactors (x - m)*inv_std*g + b into s*x + t; only float
      // rounding of that refactoring separates the two paths.
      EXPECT_NEAR(got.data()[i], want.data()[i], 2e-4f)
          << "case in=" << c.in_ch << " out=" << c.out_ch
          << " k=" << c.kernel << " s=" << c.stride << " g=" << c.groups
          << " at " << i;
    }
  }
}

TEST(FusedConv, ExactWhenFoldIsArithmeticallyNeutral) {
  // gamma == 1, running_mean == 0, no conv bias: scale = inv_std and
  // shift = beta with no refactoring, so fused and composed execute the
  // same float ops — the parity is bit-exact, tolerance 0.
  for (const EpilogueAct act :
       {EpilogueAct::kNone, EpilogueAct::kReLU, EpilogueAct::kHSwish}) {
    // Same seed per activation: same weights, beta and input each time.
    util::Rng rng(300);
    Sequential seq;
    Conv2d& conv = *seq.add(
        std::make_unique<Conv2d>(8, 12, 3, 1, 1, 1, /*bias=*/false, rng));
    BatchNorm2d& bn = *seq.add(std::make_unique<BatchNorm2d>(12));
    add_act(seq, act);
    seq.set_mode(Mode::kEval);
    for (long c = 0; c < 12; ++c) {
      bn.beta().value.at(c) = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    const Tensor x = Tensor::uniform({2, 8, 9, 9}, -1, 1, rng);

    const Tensor want = composed_forward(conv, bn, act, x);
    const Tensor got = fused_forward(seq, x);
    ASSERT_EQ(got.shape(), want.shape());
    for (long i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "act mismatch at " << i;
    }
  }
}

TEST(FusedConv, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(400);
  Sequential seq;
  Conv2d& conv = *seq.add(
      std::make_unique<Conv2d>(16, 32, 3, 1, 1, 1, /*bias=*/true, rng));
  BatchNorm2d& bn = *seq.add(std::make_unique<BatchNorm2d>(32));
  add_act(seq, EpilogueAct::kReLU);
  conv.set_mode(Mode::kEval);
  const Tensor x = Tensor::uniform({4, 16, 16, 16}, -1, 1, rng);
  randomize_bn(bn, conv.forward(x), rng);

  const std::size_t prev = util::ThreadPool::global().size();
  util::ThreadPool::configure_global(1);
  const Tensor base = fused_forward(seq, x);
  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool::configure_global(threads);
    const Tensor y = fused_forward(seq, x);
    ASSERT_EQ(0, std::memcmp(base.data(), y.data(),
                             static_cast<std::size_t>(base.numel()) *
                                 sizeof(float)))
        << "thread count " << threads;
  }
  util::ThreadPool::configure_global(prev);
}

TEST(FusedConv, SequentialPeepholeFusesInEvalOnly) {
  util::Rng rng(500);
  Sequential seq;
  Conv2d* conv = seq.add(std::make_unique<Conv2d>(8, 12, 3, 1, 1, 1,
                                                  /*bias=*/true, rng));
  seq.add(std::make_unique<BatchNorm2d>(12));
  seq.add(std::make_unique<ReLU>());
  const Tensor x = Tensor::uniform({2, 8, 9, 9}, -1, 1, rng);
  seq.forward(x);  // training-mode pass gives BN real running stats
  seq.set_mode(Mode::kEval);

  obs::Counter& fused_calls = obs::counter("hsconas.nn.fused_conv_calls");

  const Tensor plain = seq.forward(x);
  seq.set_mode(Mode::kEvalFused);

  const std::uint64_t before = fused_calls.value();
  const Tensor fused = seq.forward(x);
  EXPECT_EQ(fused_calls.value(), before + 1)
      << "a kEvalFused Sequential should route conv+bn+relu through the "
         "fused path";
  ASSERT_EQ(fused.shape(), plain.shape());
  for (long i = 0; i < fused.numel(); ++i) {
    EXPECT_NEAR(fused.data()[i], plain.data()[i], 2e-4f) << "at " << i;
  }

  // Plain eval: the composed path runs, and it still matches.
  {
    seq.set_mode(Mode::kEval);
    const std::uint64_t before_off = fused_calls.value();
    const Tensor y = seq.forward(x);
    EXPECT_EQ(fused_calls.value(), before_off);
    for (long i = 0; i < y.numel(); ++i) {
      ASSERT_EQ(y.data()[i], plain.data()[i]);
    }
  }

  // Training mode must never peephole (backward needs module caches).
  // Last, because a training-mode forward updates BN's running stats and
  // would invalidate the comparisons against `plain` above.
  seq.set_mode(Mode::kTrain);
  const std::uint64_t before_train = fused_calls.value();
  seq.forward(x);
  EXPECT_EQ(fused_calls.value(), before_train);
  (void)conv;
}

TEST(FusedConv, ChannelMismatchThrows) {
  util::Rng rng(600);
  Sequential seq;
  // A BN may normalize the leading channels of a width-sliced conv
  // output, but not more channels than it has.
  seq.add(std::make_unique<Conv2d>(4, 8, 3, 1, 1, 1, false, rng));
  seq.add(std::make_unique<BatchNorm2d>(6));  // too narrow
  add_act(seq, EpilogueAct::kReLU);
  const Tensor x = Tensor::uniform({1, 4, 5, 5}, -1, 1, rng);
  EXPECT_THROW(fused_forward(seq, x), hsconas::InvalidArgument);
}

}  // namespace
}  // namespace hsconas::nn
