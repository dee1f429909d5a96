// Sequential's conv→BN→activation peephole. A kEvalFused Sequential
// folds eval-mode BN (and the conv bias) into a per-channel affine applied
// inside the GEMM writeback; these tests pin it against the composed
// module pipeline across strides, padding, groups, depthwise and both
// activations — including the case where the fold is arithmetically exact
// (gamma == 1, running_mean == 0, no conv bias: tolerance 0) — plus which
// modes fuse and thread-count determinism. A kScore Sequential normalizes
// each chain's conv output in place with batch statistics; those tests
// pin it bit for bit against the chain's modules' own kScore forwards,
// called one at a time. The last suite pins the shuffle block's
// interleave against concat + channel shuffle written out.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/module.h"
#include "nn/shuffle.h"
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
  // output, but not more channels than it has — with either source of
  // statistics.
  seq.add(std::make_unique<Conv2d>(4, 8, 3, 1, 1, 1, false, rng));
  seq.add(std::make_unique<BatchNorm2d>(6));  // too narrow
  add_act(seq, EpilogueAct::kReLU);
  const Tensor x = Tensor::uniform({1, 4, 5, 5}, -1, 1, rng);
  EXPECT_THROW(fused_forward(seq, x), hsconas::InvalidArgument);
  seq.set_mode(Mode::kScore);
  EXPECT_THROW(seq.forward(x), hsconas::InvalidArgument);
}

// ------------------------------------------------- score-mode peephole --

/// Sizes the global pool for a scope.
class PoolSize {
 public:
  explicit PoolSize(std::size_t threads)
      : prev_(util::ThreadPool::global().size()) {
    util::ThreadPool::configure_global(threads);
  }
  ~PoolSize() { util::ThreadPool::configure_global(prev_); }
  PoolSize(const PoolSize&) = delete;
  PoolSize& operator=(const PoolSize&) = delete;

 private:
  std::size_t prev_;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// A conv → BN [→ act] chain. `x_ch` is the input's width (below in_ch:
/// a width-sliced input), `active` the Sequential's out_channels (0: all).
struct ScoreCase {
  const char* what;
  long in_ch, out_ch, kernel, stride, groups, bn_ch, x_ch, active;
  bool bias;
  EpilogueAct act;
};

// 1×1 and 3×3 dense, grouped and depthwise convs; every activation;
// conv outputs narrower than the BN; channel counts that are not
// multiples of 8 (so every statistics block width runs).
const ScoreCase kScoreCases[] = {
    {"1x1 dense", 13, 21, 1, 1, 1, 21, 13, 0, false, EpilogueAct::kReLU},
    {"3x3 dense strided", 5, 15, 3, 2, 1, 15, 5, 0, true,
     EpilogueAct::kHSwish},
    {"3x3 grouped", 12, 20, 3, 1, 4, 20, 12, 0, false, EpilogueAct::kNone},
    {"3x3 depthwise", 13, 13, 3, 1, 13, 13, 13, 0, false,
     EpilogueAct::kReLU},
    {"5x5 depthwise strided", 11, 11, 5, 2, 11, 11, 11, 0, false,
     EpilogueAct::kNone},
    {"1x1 width-sliced output", 9, 24, 1, 1, 1, 24, 9, 13, false,
     EpilogueAct::kReLU},
    {"conv narrower than bn", 9, 12, 3, 1, 1, 16, 9, 0, false,
     EpilogueAct::kHSwish},
    {"depthwise on a sliced input", 16, 16, 3, 1, 16, 16, 10, 0, false,
     EpilogueAct::kReLU},
};

/// The chain of `c` in a Sequential, with random conv bias, BN affine
/// terms and running statistics.
std::unique_ptr<Sequential> make_chain(const ScoreCase& c, util::Rng& rng) {
  auto seq = std::make_unique<Sequential>();
  Conv2d& conv = *seq->add(std::make_unique<Conv2d>(
      c.in_ch, c.out_ch, c.kernel, c.stride, c.kernel / 2, c.groups, c.bias,
      rng));
  if (c.bias) {
    for (long i = 0; i < c.out_ch; ++i) {
      conv.bias()->value.at(i) = static_cast<float>(rng.uniform(-0.3, 0.3));
    }
  }
  BatchNorm2d& bn = *seq->add(std::make_unique<BatchNorm2d>(c.bn_ch));
  for (long i = 0; i < c.bn_ch; ++i) {
    bn.gamma().value.at(i) = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.beta().value.at(i) = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  add_act(*seq, c.act);
  // Non-trivial running statistics, which a score forward must not read
  // or write.
  (void)seq->forward(Tensor::uniform({2, c.x_ch, 5, 5}, -1, 1, rng),
                     c.active);
  seq->set_mode(Mode::kScore);
  return seq;
}

TEST(ScoreConvBn, MatchesEachModulesScoreForwardBitForBit) {
  std::uint64_t seed = 700;
  for (const ScoreCase& c : kScoreCases) {
    util::Rng rng(++seed);
    const std::unique_ptr<Sequential> chain = make_chain(c, rng);
    Sequential& seq = *chain;
    auto& conv = static_cast<Conv2d&>(seq.child(0));
    auto& bn = static_cast<BatchNorm2d&>(seq.child(1));
    const Tensor mean = bn.running_mean(), var = bn.running_var();
    for (const long batch : {1L, 36L}) {
      const Tensor x = Tensor::uniform({batch, c.x_ch, 7, 7}, -2, 2, rng);
      // The oracle: the chain's modules, each running its own kScore
      // forward.
      Tensor want = bn.forward(conv.forward(x, c.active));
      if (seq.size() == 3) want = seq.child(2).forward(want);
      for (const std::size_t pool : {1u, 2u, 4u}) {
        PoolSize guard(pool);
        const Tensor got = seq.forward(x, c.active);
        EXPECT_TRUE(same_bits(got, want))
            << c.what << ", batch " << batch << ", pool " << pool;
      }
    }
    // A score forward writes no running statistic.
    EXPECT_TRUE(same_bits(bn.running_mean(), mean)) << c.what;
    EXPECT_TRUE(same_bits(bn.running_var(), var)) << c.what;
  }
}

TEST(ScoreConvBn, PeepholeRunsInScoreModeOnly) {
  util::Rng rng(800);
  Sequential seq;
  // Two chains: conv → BN → ReLU, then conv → BN.
  seq.add(std::make_unique<Conv2d>(6, 10, 3, 1, 1, 1, false, rng));
  seq.add(std::make_unique<BatchNorm2d>(10));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Conv2d>(10, 10, 3, 1, 1, 10, false, rng));
  seq.add(std::make_unique<BatchNorm2d>(10));
  const Tensor x = Tensor::uniform({3, 6, 6, 6}, -1, 1, rng);

  obs::Counter& score_calls = obs::counter("hsconas.nn.score_conv_bn_calls");
  obs::Counter& fused_calls = obs::counter("hsconas.nn.fused_conv_calls");
  for (const Mode mode :
       {Mode::kTrain, Mode::kScore, Mode::kEval, Mode::kEvalFused}) {
    seq.set_mode(mode);
    const std::uint64_t score0 = score_calls.value();
    const std::uint64_t fused0 = fused_calls.value();
    (void)seq.forward(x);
    EXPECT_EQ(score_calls.value() - score0, mode == Mode::kScore ? 2u : 0u)
        << static_cast<int>(mode);
    EXPECT_EQ(fused_calls.value() - fused0, mode == Mode::kEvalFused ? 2u : 0u)
        << static_cast<int>(mode);
  }
}

// --------------------------------------------------------- interleave --

/// 2-group channel shuffle, written out: channel (g, i) moves to i·2 + g;
/// the inverse moves it back.
Tensor reference_shuffle(const Tensor& x, bool inverse) {
  const long n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long per = c / 2;
  Tensor y(x.shape());
  for (long s = 0; s < n; ++s) {
    for (long src = 0; src < c; ++src) {
      const long dst = inverse ? (src % 2) * per + src / 2
                               : (src % per) * 2 + src / per;
      for (long i = 0; i < h; ++i) {
        for (long j = 0; j < w; ++j) y.at(s, dst, i, j) = x.at(s, src, i, j);
      }
    }
  }
  return y;
}

TEST(ChannelInterleave, EqualsShuffleOfConcatAtBothStrides) {
  util::Rng rng(900);
  const long n = 3, half = 5, h = 3, w = 4;
  const Tensor b = Tensor::uniform({n, half, h, w}, -1, 1, rng);
  // Stride 1 passes the block's whole input, whose leading half is the
  // left branch; stride 2 passes the projection branch's output.
  const Tensor x = Tensor::uniform({n, 2 * half, h, w}, -1, 1, rng);
  const Tensor proj = Tensor::uniform({n, half, h, w}, -1, 1, rng);
  EXPECT_TRUE(same_bits(
      interleave_channels(x, b),
      reference_shuffle(concat_channels(slice_channels(x, 0, half), b),
                        /*inverse=*/false)))
      << "stride 1";
  EXPECT_TRUE(same_bits(
      interleave_channels(proj, b),
      reference_shuffle(concat_channels(proj, b), /*inverse=*/false)))
      << "stride 2";
}

TEST(ChannelInterleave, DeinterleaveEqualsSplitOfInverseShuffle) {
  util::Rng rng(901);
  // The backward of both strides splits dy into two equal halves.
  for (const long half : {1L, 5L, 8L}) {
    const Tensor dy = Tensor::uniform({2, 2 * half, 3, 3}, -1, 1, rng);
    Tensor left, right;
    deinterleave_channels(dy, left, right);
    const Tensor unshuffled = reference_shuffle(dy, /*inverse=*/true);
    EXPECT_TRUE(same_bits(left, slice_channels(unshuffled, 0, half)))
        << "half " << half;
    EXPECT_TRUE(same_bits(right, slice_channels(unshuffled, half, half)))
        << "half " << half;
  }
}

}  // namespace
}  // namespace hsconas::nn
