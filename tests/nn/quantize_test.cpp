// Post-training-quantization contracts (nn/quantize.h): quantize /
// dequantize round-trip error bounds, observer zero-inclusion and
// saturation at the u8 / ±127 extremes, int8-vs-fp32 layer agreement
// within scale-derived tolerance, exact fallback for uncalibrated
// layers, calibration-table serialization round-trips (bit-identical
// int8 outputs after import), batched == sequential bit-identity, and
// thread-count determinism of the quantized forward; weight codes stored
// in the weight's layout, and the int8 Linear as one call of the int8
// GEMM's conv-view entry.

#include "nn/quantize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "tensor/quantize_i8.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/thread_pool.h"

namespace hsconas::nn {
namespace {

using tensor::QuantParams;
using tensor::Tensor;

class PoolGuard {
 public:
  explicit PoolGuard(std::size_t threads)
      : prev_(util::ThreadPool::global().size()) {
    util::ThreadPool::configure_global(threads);
  }
  ~PoolGuard() { util::ThreadPool::configure_global(prev_); }

 private:
  std::size_t prev_;
};

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (long i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

float max_abs(const Tensor& a) {
  float worst = 0.0f;
  for (long i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i]));
  }
  return worst;
}

TEST(Quantize, RoundTripWithinHalfScale) {
  util::Rng rng(31);
  MinMaxObserver obs;
  std::vector<float> x(1000);
  for (float& v : x) v = static_cast<float>(rng.uniform(-3.0, 5.0));
  obs.observe(x.data(), x.size());
  const QuantParams p = obs.params();
  ASSERT_GT(p.scale, 0.0f);
  std::vector<std::uint8_t> q(x.size());
  tensor::quantize_u8(x.data(), x.size(), p, q.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // In-range values round-trip within half a quantization step.
    EXPECT_NEAR(x[i], dequantize_u8(q[i], p), 0.5f * p.scale + 1e-6f);
  }
}

TEST(Quantize, ObserverRangeAlwaysIncludesZero) {
  MinMaxObserver obs;
  // All-positive data (a ReLU output): the range must widen to [0, max]
  // so that real 0.0 maps exactly to the zero_point code.
  std::vector<float> x = {2.0f, 4.0f, 8.0f};
  obs.observe(x.data(), x.size());
  const QuantParams p = obs.params();
  EXPECT_EQ(0, p.zero_point);
  std::uint8_t q = 255;
  const float zero = 0.0f;
  tensor::quantize_u8(&zero, 1, p, &q);
  EXPECT_EQ(0.0f, dequantize_u8(q, p));
}

TEST(Quantize, DegenerateRangeGivesIdentityQuantizer) {
  MinMaxObserver unseen;
  EXPECT_EQ(1.0f, unseen.params().scale);
  EXPECT_EQ(0, unseen.params().zero_point);
  MinMaxObserver zeros;
  std::vector<float> x(8, 0.0f);
  zeros.observe(x.data(), x.size());
  EXPECT_EQ(1.0f, zeros.params().scale);
}

TEST(Quantize, SaturatesAtU8Extremes) {
  QuantParams p{0.1f, 128};
  const float lo = -1e6f, hi = 1e6f;
  std::uint8_t q = 7;
  tensor::quantize_u8(&lo, 1, p, &q);
  EXPECT_EQ(0, q);
  tensor::quantize_u8(&hi, 1, p, &q);
  EXPECT_EQ(255, q);
}

TEST(Quantize, WeightCodesSaturateAt127) {
  // Freeze with deliberately small scales: codes must clamp to ±127,
  // never reach -128 (which would break the VNNI accumulation bound).
  util::Rng rng(32);
  Tensor w = Tensor::uniform({2, 8}, -4.0f, 4.0f, rng);
  w.at(0, 0) = 100.0f;
  w.at(1, 0) = -100.0f;
  QuantState qs;
  qs.freeze_from(w, 2, QuantParams{1.0f, 0},
                 std::vector<float>{0.01f, 0.01f});
  EXPECT_EQ(127, qs.qweight[0]);
  EXPECT_EQ(-127, qs.qweight[8]);
  for (const std::int8_t code : qs.qweight) {
    EXPECT_GE(code, -127);
    EXPECT_LE(code, 127);
  }
}

TEST(Quantize, FreezeRecordsRowSums) {
  util::Rng rng(33);
  Tensor w = Tensor::uniform({3, 16}, -1.0f, 1.0f, rng);
  QuantState qs;
  qs.freeze(w, 3);
  ASSERT_TRUE(qs.ready);
  ASSERT_EQ(3u, qs.weight_scales.size());
  for (long c = 0; c < 3; ++c) {
    std::int32_t sum = 0;
    for (long t = 0; t < 16; ++t) sum += qs.qweight[c * 16 + t];
    EXPECT_EQ(sum, qs.weight_row_sums[static_cast<std::size_t>(c)]);
    // Symmetric per-channel scale: the largest-magnitude weight maps to
    // ±127 exactly.
    EXPECT_GT(qs.weight_scales[static_cast<std::size_t>(c)], 0.0f);
  }
}

TEST(Quantize, FreezeWritesCodesInTheWeightLayoutAndResetFreesThem) {
  // qweight holds one code per weight element, at the element's own
  // index: row c's codes are round(w / scale[c]) clamped to ±127.
  util::Rng rng(34);
  const Tensor w = Tensor::uniform({3, 10}, -1.0f, 1.0f, rng);
  const std::vector<float> scales = {0.01f, 0.02f, 0.004f};
  QuantState qs;
  qs.freeze_from(w, 3, QuantParams{0.5f, 7}, scales);
  ASSERT_EQ(30u, qs.qweight.size());
  for (long c = 0; c < 3; ++c) {
    for (long t = 0; t < 10; ++t) {
      const float v = std::nearbyintf(
          w.at(c, t) * (1.0f / scales[static_cast<std::size_t>(c)]));
      EXPECT_EQ(static_cast<std::int32_t>(std::clamp(v, -127.0f, 127.0f)),
                qs.qweight[static_cast<std::size_t>(c * 10 + t)])
          << "row " << c << " column " << t;
    }
  }
  EXPECT_EQ(0.5f, qs.input.scale);
  EXPECT_EQ(7, qs.input.zero_point);
  qs.reset();
  EXPECT_FALSE(qs.ready);
  EXPECT_TRUE(qs.qweight.empty());
  EXPECT_TRUE(qs.weight_scales.empty());
  EXPECT_TRUE(qs.weight_row_sums.empty());
}

struct ConvCase {
  long in_ch, out_ch, kernel, stride, pad, groups;
  bool bias;
};

TEST(QuantizedConv, AgreesWithFp32WithinScaleTolerance) {
  const ConvCase cases[] = {
      {8, 12, 3, 1, 1, 1, true},   // dense
      {8, 8, 3, 2, 1, 8, false},   // depthwise, strided
      {12, 8, 1, 1, 0, 4, true},   // grouped pointwise
      {6, 6, 5, 1, 2, 6, true},    // depthwise 5x5 with bias
  };
  int idx = 0;
  for (const ConvCase& c : cases) {
    util::Rng rng(40 + idx++);
    Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.pad, c.groups,
                c.bias, rng);
    conv.set_mode(Mode::kEval);
    std::vector<Tensor> batches;
    batches.push_back(Tensor::uniform({2, c.in_ch, 9, 9}, -1.5f, 1.5f, rng));
    batches.push_back(Tensor::uniform({2, c.in_ch, 9, 9}, -1.0f, 2.0f, rng));
    const Tensor x = Tensor::uniform({3, c.in_ch, 9, 9}, -1.2f, 1.2f, rng);
    const Tensor y32 = conv.forward(x);  // fp32 reference: not yet ready
    ASSERT_EQ(1u, calibrate(conv, batches));
    const Tensor y8 = conv.forward(x);
    // Error budget: activation rounding (scale/2 per tap) plus weight
    // rounding, accumulated over the reduction. 2% of the output range
    // is far above what the 3x3/1x1 windows here can accumulate, and far
    // below any real disagreement (wrong zero-point correction shifts
    // outputs by whole units).
    const float tol = 0.02f * (max_abs(y32) + 1.0f);
    EXPECT_LT(max_abs_diff(y32, y8), tol)
        << "case " << idx - 1 << ": int8 conv diverged from fp32";
  }
}

TEST(QuantizedConv, UncalibratedLayerFallsBackToFp32Exactly) {
  util::Rng rng(45);
  Conv2d conv(4, 6, 3, 1, 1, 1, true, rng);
  conv.set_mode(Mode::kEval);
  const Tensor x = Tensor::uniform({2, 4, 7, 7}, -1.0f, 1.0f, rng);
  const Tensor y32 = conv.forward(x);
  auto same = [&](const Tensor& y) {
    return std::memcmp(y32.data(), y.data(),
                       static_cast<std::size_t>(y32.numel()) *
                           sizeof(float)) == 0;
  };
  // An armed observer still computes fp32 until calibration freezes it.
  conv.quant_state()->observing = true;
  EXPECT_TRUE(same(conv.forward(x)));
  conv.quant_state()->observing = false;
  // Calibrated: int8. Reset: back to the exact fp32 bits.
  ASSERT_EQ(1u, calibrate(conv, {x}));
  EXPECT_FALSE(same(conv.forward(x)));
  conv.quant_state()->reset();
  EXPECT_TRUE(same(conv.forward(x)));
}

TEST(QuantizedConv, FusedPeepholeComposesWithInt8) {
  util::Rng rng(46);
  auto seq = std::make_unique<Sequential>("block");
  auto* conv = seq->add(std::make_unique<Conv2d>(6, 10, 3, 1, 1, 1, true,
                                                 rng));
  auto* bn = seq->add(std::make_unique<BatchNorm2d>(10));
  seq->add(std::make_unique<ReLU>());
  (void)conv;
  // Push real statistics through BN, then freeze into eval mode.
  seq->set_mode(Mode::kTrain);
  (void)seq->forward(Tensor::uniform({4, 6, 9, 9}, -1.0f, 1.0f, rng));
  seq->set_mode(Mode::kEval);
  for (long c = 0; c < bn->channels(); ++c) {
    bn->gamma().value.at(c) = static_cast<float>(rng.uniform(0.5, 1.5));
    bn->beta().value.at(c) = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({2, 6, 9, 9}, -1.0f, 1.0f, rng));
  const Tensor x = Tensor::uniform({2, 6, 9, 9}, -1.0f, 1.0f, rng);
  seq->set_mode(Mode::kEvalFused);
  const Tensor y32 = seq->forward(x);
  ASSERT_EQ(1u, calibrate(*seq, batches));
  EXPECT_EQ(Mode::kEvalFused, seq->mode());
  const Tensor y8 = seq->forward(x);
  const float tol = 0.02f * (max_abs(y32) + 1.0f);
  EXPECT_LT(max_abs_diff(y32, y8), tol)
      << "int8 under the conv/BN/act fusion peephole diverged";
}

TEST(QuantizedLinear, AgreesWithFp32WithinScaleTolerance) {
  util::Rng rng(47);
  Linear lin(32, 10, rng);
  lin.set_mode(Mode::kEval);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({4, 32}, -2.0f, 2.0f, rng));
  const Tensor x = Tensor::uniform({5, 32}, -1.5f, 1.5f, rng);
  const Tensor y32 = lin.forward(x);
  ASSERT_EQ(1u, calibrate(lin, batches));
  const Tensor y8 = lin.forward(x);
  const float tol = 0.02f * (max_abs(y32) + 1.0f);
  EXPECT_LT(max_abs_diff(y32, y8), tol);
}

TEST(QuantizedLinear, BatchedEqualsSequentialBitExactly) {
  util::Rng rng(48);
  Linear lin(16, 6, rng);
  lin.set_mode(Mode::kEval);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({3, 16}, -1.0f, 1.0f, rng));
  calibrate(lin, batches);
  const Tensor x = Tensor::uniform({4, 16}, -1.0f, 1.0f, rng);
  const Tensor batched = lin.forward(x);
  for (long s = 0; s < 4; ++s) {
    Tensor one({1, 16});
    std::memcpy(one.data(), x.data() + s * 16, 16 * sizeof(float));
    const Tensor ys = lin.forward(one);
    ASSERT_EQ(0, std::memcmp(batched.data() + s * 6, ys.data(),
                             6 * sizeof(float)))
        << "sample " << s << " differs between batched and sequential";
  }
}

TEST(QuantizedLinear, UncalibratedLayerFallsBackToFp32Exactly) {
  util::Rng rng(49);
  Linear lin(24, 9, rng);
  lin.set_mode(Mode::kEval);
  const Tensor x = Tensor::uniform({3, 24}, -1.0f, 1.0f, rng);
  const Tensor y32 = lin.forward(x);
  auto same = [&](const Tensor& y) {
    return std::memcmp(y32.data(), y.data(),
                       static_cast<std::size_t>(y32.numel()) *
                           sizeof(float)) == 0;
  };
  lin.quant_state()->observing = true;
  EXPECT_TRUE(same(lin.forward(x)));
  lin.quant_state()->observing = false;
  ASSERT_EQ(1u, calibrate(lin, {x}));
  EXPECT_FALSE(same(lin.forward(x)));
  lin.quant_state()->reset();
  EXPECT_TRUE(same(lin.forward(x)));
}

TEST(QuantizedLinear, BitIdenticalAcrossThreadCounts) {
  // in = 300 at batch 17 takes the blocked GEMM path with a partial panel.
  util::Rng rng(53);
  Linear lin(300, 40, rng);
  lin.set_mode(Mode::kEval);
  calibrate(lin, {Tensor::uniform({4, 300}, -1.0f, 1.0f, rng)});
  const Tensor x = Tensor::uniform({17, 300}, -1.0f, 1.0f, rng);
  Tensor y1;
  {
    PoolGuard pool(1);
    y1 = lin.forward(x);
  }
  for (const std::size_t threads : {2u, 8u}) {
    PoolGuard pool(threads);
    const Tensor yt = lin.forward(x);
    ASSERT_EQ(0, std::memcmp(y1.data(), yt.data(),
                             static_cast<std::size_t>(y1.numel()) *
                                 sizeof(float)))
        << "thread count " << threads << " changed the quantized result";
  }
}

TEST(QuantizedLinear, RunsAsOneConvEntryCallWithTheLayersMacs) {
  // The int8 Linear is one call of the conv-view GEMM entry per forward,
  // counting batch · in · out multiply-accumulates; fp32 forwards count
  // none.
  util::Rng rng(54);
  Linear lin(20, 6, rng);
  lin.set_mode(Mode::kEval);
  const Tensor x = Tensor::uniform({5, 20}, -1.0f, 1.0f, rng);
  obs::Counter& calls = obs::counter("hsconas.gemm_i8.calls_conv");
  obs::Counter& macs = obs::counter("hsconas.gemm_i8.macs");
  const std::uint64_t calls0 = calls.value(), macs0 = macs.value();
  lin.forward(x);
  EXPECT_EQ(calls0, calls.value());
  EXPECT_EQ(macs0, macs.value());
  calibrate(lin, {x});
  lin.forward(x);
  lin.forward(x);
  EXPECT_EQ(calls0 + 2, calls.value());
  EXPECT_EQ(macs0 + 2u * 5u * 20u * 6u, macs.value());
}

TEST(QuantizedLinear, EmptyBatchGivesEmptyOutput) {
  util::Rng rng(55);
  Linear lin(12, 4, rng);
  lin.set_mode(Mode::kEval);
  calibrate(lin, {Tensor::uniform({2, 12}, -1.0f, 1.0f, rng)});
  const Tensor y = lin.forward(Tensor({0, 12}));
  ASSERT_EQ(2, y.ndim());
  EXPECT_EQ(0, y.dim(0));
  EXPECT_EQ(4, y.dim(1));
}

TEST(Calibration, RestoresModeAndDtypeSwitches) {
  util::Rng rng(49);
  Conv2d conv(4, 4, 3, 1, 1, 1, false, rng);
  conv.set_mode(Mode::kTrain);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({1, 4, 7, 7}, -1.0f, 1.0f, rng));
  calibrate(conv, batches);
  EXPECT_EQ(Mode::kTrain, conv.mode());
  EXPECT_THROW(calibrate(conv, {}), InvalidArgument);
}

TEST(Calibration, ThrowingBatchLeavesNoObserverArmedAndNothingReady) {
  auto build = [] {
    util::Rng wrng(778);  // identical weights for both models
    auto seq = std::make_unique<Sequential>("net");
    seq->add(std::make_unique<Conv2d>(4, 8, 3, 1, 1, 1, true, wrng));
    seq->add(std::make_unique<ReLU>());
    seq->add(std::make_unique<Conv2d>(8, 8, 3, 1, 1, 8, false, wrng));
    seq->set_mode(Mode::kEval);
    return seq;
  };
  auto net = build();
  auto twin = build();  // never calibrated
  util::Rng rng(53);
  const Tensor good = Tensor::uniform({2, 4, 9, 9}, -1.0f, 1.0f, rng);
  // Ready from an earlier calibration, so the failed one must undo it.
  ASSERT_EQ(2u, calibrate(*net, {good}));
  // The first batch arms and feeds every observer; the second has 5
  // input channels where the stem takes at most 4, so its forward throws.
  const Tensor bad = Tensor::uniform({2, 5, 9, 9}, -1.0f, 1.0f, rng);
  EXPECT_THROW(calibrate(*net, {good, bad}), InvalidArgument);
  EXPECT_EQ(Mode::kEval, net->mode());
  int layers = 0;
  net->visit([&](Module& m) {
    if (QuantState* q = m.quant_state()) {
      ++layers;
      EXPECT_FALSE(q->observing) << m.name();
      EXPECT_FALSE(q->ready) << m.name();
    }
  });
  EXPECT_EQ(2, layers);

  const Tensor x = Tensor::uniform({3, 4, 9, 9}, -1.0f, 1.0f, rng);
  const Tensor y = net->forward(x);
  const Tensor y_twin = twin->forward(x);
  ASSERT_EQ(0, std::memcmp(y.data(), y_twin.data(),
                           static_cast<std::size_t>(y.numel()) *
                               sizeof(float)))
      << "a failed calibration changed the eval output";
}

TEST(Calibration, ExportImportRoundTripsBitExactly) {
  util::Rng rng(50);
  auto build = [] {
    util::Rng wrng(777);  // identical weights for both models
    auto seq = std::make_unique<Sequential>("net");
    seq->add(std::make_unique<Conv2d>(4, 8, 3, 1, 1, 1, true, wrng));
    seq->add(std::make_unique<ReLU>());
    seq->add(std::make_unique<Conv2d>(8, 8, 3, 1, 1, 8, false, wrng));
    return seq;
  };
  auto a = build();
  a->set_mode(Mode::kEval);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({2, 4, 9, 9}, -1.0f, 1.0f, rng));
  ASSERT_EQ(2u, calibrate(*a, batches));

  util::ByteWriter w;
  export_calibration(*a, w);
  auto b = build();
  b->set_mode(Mode::kEval);
  util::ByteReader r(w.data());
  import_calibration(*b, r);
  r.expect_done();

  const Tensor x = Tensor::uniform({2, 4, 9, 9}, -1.0f, 1.0f, rng);
  const Tensor ya = a->forward(x);
  const Tensor yb = b->forward(x);
  ASSERT_EQ(0, std::memcmp(ya.data(), yb.data(),
                           static_cast<std::size_t>(ya.numel()) *
                               sizeof(float)))
      << "imported calibration produced different int8 outputs";
}

TEST(Calibration, ImportRejectsMismatchedModel) {
  util::Rng rng(51);
  Conv2d conv(4, 8, 3, 1, 1, 1, true, rng);
  conv.set_mode(Mode::kEval);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({1, 4, 7, 7}, -1.0f, 1.0f, rng));
  calibrate(conv, batches);
  util::ByteWriter w;
  export_calibration(conv, w);

  // Two quantizable layers where the table has one.
  Sequential two("two");
  two.add(std::make_unique<Conv2d>(4, 8, 3, 1, 1, 1, true, rng));
  two.add(std::make_unique<Conv2d>(8, 8, 3, 1, 1, 1, true, rng));
  util::ByteReader r1(w.data());
  EXPECT_THROW(import_calibration(two, r1), InvalidArgument);

  // Right layer count, wrong channel count.
  Conv2d other(4, 6, 3, 1, 1, 1, true, rng);
  util::ByteReader r2(w.data());
  EXPECT_THROW(import_calibration(other, r2), InvalidArgument);
}

TEST(QuantizedConv, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(52);
  Conv2d conv(16, 24, 3, 1, 1, 2, true, rng);
  conv.set_mode(Mode::kEval);
  std::vector<Tensor> batches;
  batches.push_back(Tensor::uniform({2, 16, 14, 14}, -1.0f, 1.0f, rng));
  calibrate(conv, batches);
  const Tensor x = Tensor::uniform({4, 16, 14, 14}, -1.0f, 1.0f, rng);
  Tensor y1;
  {
    PoolGuard pool(1);
    y1 = conv.forward(x);
  }
  for (const std::size_t threads : {2u, 8u}) {
    PoolGuard pool(threads);
    const Tensor yt = conv.forward(x);
    ASSERT_EQ(0, std::memcmp(y1.data(), yt.data(),
                             static_cast<std::size_t>(y1.numel()) *
                                 sizeof(float)))
        << "thread count " << threads << " changed the quantized result";
  }
}

/// The u8 code of one input element, straight from the quantizer formula.
std::int32_t code_reference(float x, QuantParams p) {
  const float v = std::nearbyintf(x * (1.0f / p.scale)) +
                  static_cast<float>(p.zero_point);
  return static_cast<std::int32_t>(std::clamp(v, 0.0f, 255.0f));
}

/// Naive integer reference of a calibrated int8 Conv2d: quantize each tap
/// from the formula (padding is the code of a real 0, z_a), accumulate the
/// window in int32, correct by z_a times the channel's weight sum, and
/// dequantize with the layer's composed affine
///   act((scale[c] * s_a * s_w[c]) * acc + shift[c]).
Tensor int8_conv_reference(Conv2d& conv, const Tensor& x, const float* scale,
                           const float* shift, tensor::EpilogueAct act) {
  const QuantState& q = *conv.quant_state();
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long k = conv.kernel(), stride = conv.stride(), pad = conv.pad();
  const long cin_g = conv.in_channels() / conv.groups();
  const long cout_g = conv.out_channels() / conv.groups();
  const long oh = (h + 2 * pad - k) / stride + 1;
  const long ow = (w + 2 * pad - k) / stride + 1;
  const std::int32_t za = q.input.zero_point;
  Tensor y({n, conv.out_channels(), oh, ow});
  for (long c = 0; c < conv.out_channels(); ++c) {
    const std::int8_t* wc = q.qweight.data() + c * cin_g * k * k;
    std::int32_t wsum = 0;
    for (long t = 0; t < cin_g * k * k; ++t) wsum += wc[t];
    const float es = scale != nullptr ? scale[c] : 1.0f;
    const float qs =
        es * q.input.scale * q.weight_scales[static_cast<std::size_t>(c)];
    const float t = shift != nullptr ? shift[c] : 0.0f;
    const long first_in = c / cout_g * cin_g;
    for (long s = 0; s < n; ++s) {
      for (long oy = 0; oy < oh; ++oy) {
        for (long ox = 0; ox < ow; ++ox) {
          std::int32_t acc = 0;
          for (long ci = 0; ci < cin_g; ++ci) {
            for (long ky = 0; ky < k; ++ky) {
              for (long kx = 0; kx < k; ++kx) {
                const long iy = oy * stride - pad + ky;
                const long ix = ox * stride - pad + kx;
                const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
                const std::int32_t code =
                    inside ? code_reference(x.at(s, first_in + ci, iy, ix),
                                            q.input)
                           : za;
                acc += wc[(ci * k + ky) * k + kx] * code;
              }
            }
          }
          y.at(s, c, oy, ox) = tensor::epilogue_apply(
              act, tensor::epilogue_affine(
                       qs, static_cast<float>(acc - za * wsum), t));
        }
      }
    }
  }
  return y;
}

/// Index of the first element whose bits differ, or -1.
long first_bit_difference(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  for (long i = 0; i < a.numel(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0) return i;
  }
  return -1;
}

TEST(QuantizedConv, BitExactAgainstIntegerReference) {
  // Every int8 conv path (depthwise planes, the direct 1×1 pointwise
  // quantize, the z_a-padded u8 window gather) against the naive integer
  // reference, in kEval (bias epilogue) and kEvalFused (a folded per-channel
  // affine plus activation). Spatial sizes leave partial vector tails in
  // every row, plane and column block.
  constexpr long kChannels = 4;
  int seed = 70;
  for (const long k : {1L, 3L, 7L}) {
    for (const long stride : {1L, 2L}) {
      for (const long groups : {1L, 2L, kChannels}) {
        const long out_ch = groups == kChannels ? kChannels : 6;
        const long pad = k / 2;
        util::Rng rng(static_cast<std::uint64_t>(seed++));
        Conv2d conv(kChannels, out_ch, k, stride, pad, groups, true, rng);
        for (long c = 0; c < out_ch; ++c) {
          conv.bias()->value.at(c) = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        conv.set_mode(Mode::kEval);
        ASSERT_EQ(1u, calibrate(conv, {Tensor::uniform({2, kChannels, 11, 13},
                                                       -1.5f, 2.0f, rng)}));
        std::vector<float> scale(static_cast<std::size_t>(out_ch));
        std::vector<float> shift(static_cast<std::size_t>(out_ch));
        for (std::size_t c = 0; c < scale.size(); ++c) {
          scale[c] = static_cast<float>(rng.uniform(0.5, 1.5));
          shift[c] = static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        for (const long batch : {1L, 3L, 8L}) {
          // Inputs beyond the calibrated range exercise the 0/255 clamps.
          const Tensor x =
              Tensor::uniform({batch, kChannels, 11, 13}, -2.0f, 2.5f, rng);
          const std::string where = "k=" + std::to_string(k) +
                                    " stride=" + std::to_string(stride) +
                                    " groups=" + std::to_string(groups) +
                                    " batch=" + std::to_string(batch);
          conv.set_mode(Mode::kEval);
          const long plain = first_bit_difference(
              int8_conv_reference(conv, x, nullptr, conv.bias()->value.data(),
                                  tensor::EpilogueAct::kNone),
              conv.forward(x));
          EXPECT_EQ(-1, plain) << "kEval " << where;
          conv.set_mode(Mode::kEvalFused);
          for (const tensor::EpilogueAct act :
               {tensor::EpilogueAct::kReLU, tensor::EpilogueAct::kHSwish}) {
            const long fused = first_bit_difference(
                int8_conv_reference(conv, x, scale.data(), shift.data(), act),
                conv.forward_fused(x, scale.data(), shift.data(), act));
            EXPECT_EQ(-1, fused) << "kEvalFused act=" << static_cast<int>(act)
                                 << " " << where;
          }
        }
      }
    }
  }
}

TEST(QuantizedLinear, BitExactAgainstIntegerReference) {
  util::Rng rng(80);
  const long out = 11;
  // in = 37: a reduction with a partial quad; in = 300 takes the blocked
  // GEMM path from batch 3 on. Batch 17 ends in a partial 16-column panel.
  for (const long in : {37L, 300L}) {
    Linear lin(in, out, rng);
    for (long o = 0; o < out; ++o) {
      lin.bias().value.at(o) = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    lin.set_mode(Mode::kEval);
    ASSERT_EQ(1u,
              calibrate(lin, {Tensor::uniform({4, in}, -1.0f, 1.5f, rng)}));
    const QuantState& q = *lin.quant_state();
    const std::int32_t za = q.input.zero_point;
    for (const long batch : {1L, 3L, 8L, 17L}) {
      const Tensor x = Tensor::uniform({batch, in}, -1.5f, 2.0f, rng);
      Tensor want({batch, out});
      for (long o = 0; o < out; ++o) {
        const std::int8_t* wo = q.qweight.data() + o * in;
        const float qs =
            q.input.scale * q.weight_scales[static_cast<std::size_t>(o)];
        for (long s = 0; s < batch; ++s) {
          std::int32_t acc = 0;
          for (long t = 0; t < in; ++t) {
            acc += wo[t] * (code_reference(x.at(s, t), q.input) - za);
          }
          want.at(s, o) = tensor::epilogue_affine(
              qs, static_cast<float>(acc), lin.bias().value.at(o));
        }
      }
      EXPECT_EQ(-1, first_bit_difference(want, lin.forward(x)))
          << "in=" << in << " batch=" << batch;
    }
  }
}

}  // namespace
}  // namespace hsconas::nn
