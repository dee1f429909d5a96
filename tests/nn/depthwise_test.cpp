// Bit-exactness of the direct depthwise conv (fp32 and int8) and of the
// branch-free ReLU forward. Both dtypes run one kernel design
// (tensor/depthwise.h): one channel of every sample is stacked into a
// bordered buffer, split into stride phases, and each tap runs as one
// vector pass over all of the channel's outputs, full windows included.
// For fp32 the border is 0.0f and every output still adds its taps in
// (ky, kx) order from 0.0f, so — for finite weights — it must equal, bit
// for bit, a float reference that bounds-checks every tap and skips the
// ones outside the image; a non-finite weight on a padded tap makes that
// output NaN, which is pinned below. The fused writeback must equal the
// reference composed with epilogue_affine / epilogue_apply.
// (ConvReference in test_nn checks the same forward against a
// double-precision definition, with a tolerance.) The int8 kernel sums a
// zero-point-padded plane over full windows; it must equal the form that
// skips border taps and corrects by their weight sum.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/quantize.h"
#include "tensor/gemm.h"
#include "tensor/quantize_i8.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsconas::nn {
namespace {

using tensor::Tensor;

/// Float depthwise reference: per output, taps in (ky, kx) order, each
/// bounds-checked, accumulated in float from 0.0f; then the conv bias.
Tensor depthwise_reference(const Tensor& x, const Tensor& wgt,
                           const Tensor* bias, long stride, long pad) {
  const long n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long k = wgt.dim(2);
  const long oh = (h + 2 * pad - k) / stride + 1;
  const long ow = (w + 2 * pad - k) / stride + 1;
  Tensor y({n, ch, oh, ow});
  for (long s = 0; s < n; ++s) {
    for (long c = 0; c < ch; ++c) {
      for (long oy = 0; oy < oh; ++oy) {
        for (long ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (long ky = 0; ky < k; ++ky) {
            const long iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (long kx = 0; kx < k; ++kx) {
              const long ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += wgt.at(c, 0, ky, kx) * x.at(s, c, iy, ix);
            }
          }
          if (bias != nullptr) {
            acc = tensor::epilogue_affine(1.0f, acc, bias->at(c));
          }
          y.at(s, c, oy, ox) = acc;
        }
      }
    }
  }
  return y;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// Resize the global pool for one scope, restoring the prior width.
class PoolGuard {
 public:
  explicit PoolGuard(std::size_t threads)
      : prev_(util::ThreadPool::global().size()) {
    util::ThreadPool::configure_global(threads);
  }
  ~PoolGuard() { util::ThreadPool::configure_global(prev_); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;

 private:
  std::size_t prev_;
};

struct DwCase {
  long batch, channels, h, w, kernel, stride, pad;
};

// k in {3, 5, 7} x stride in {1, 2, 3}; square, non-square, inputs
// smaller than the kernel (every output a border output), unpadded and
// over-padded geometries, kernels smaller than the stride, kernel rows
// longer than one row pass (k = 17), and the proxy search shapes at
// batch 36. Stride 3 runs the phase split with a runtime stride.
const DwCase kDwCases[] = {
    {2, 3, 9, 9, 3, 1, 1},    {2, 3, 9, 9, 3, 2, 1},
    {2, 3, 11, 7, 5, 1, 2},   {2, 3, 7, 13, 5, 2, 2},
    {2, 3, 10, 15, 7, 1, 3},  {2, 3, 15, 10, 7, 2, 3},
    {1, 4, 3, 3, 7, 1, 3},    {1, 4, 3, 3, 7, 2, 3},
    {1, 4, 2, 5, 5, 1, 2},    {1, 4, 1, 1, 3, 1, 1},
    {2, 3, 8, 9, 3, 1, 0},    {2, 3, 8, 9, 3, 1, 2},
    {1, 2, 4, 5, 3, 1, 3},    {1, 2, 4, 5, 3, 2, 3},
    {2, 3, 12, 12, 3, 2, 1},  {2, 3, 20, 17, 3, 1, 1},
    {36, 8, 12, 12, 3, 1, 1}, {36, 8, 12, 12, 7, 1, 3},
    {36, 16, 12, 12, 5, 2, 2}, {36, 32, 6, 6, 3, 2, 1},
    {36, 32, 3, 3, 7, 1, 3},  {36, 64, 3, 3, 5, 1, 2},
    {2, 3, 11, 10, 3, 3, 1},  {2, 3, 13, 14, 5, 3, 2},
    {1, 4, 9, 9, 7, 3, 3},    {2, 3, 10, 11, 3, 3, 0},
    {1, 4, 2, 2, 5, 3, 2},    {2, 3, 7, 8, 1, 2, 0},
    {2, 3, 7, 8, 1, 3, 0},    {2, 3, 8, 7, 2, 3, 1},
    {1, 2, 20, 18, 17, 1, 8}, {1, 2, 19, 21, 17, 2, 8},
};

TEST(DepthwiseConv, BitExactAgainstInOrderFloatReference) {
  std::uint64_t seed = 700;
  for (const DwCase& c : kDwCases) {
    for (const bool bias : {false, true}) {
      util::Rng rng(++seed);
      Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                  c.channels, bias, rng);
      if (bias) {
        for (long i = 0; i < c.channels; ++i) {
          conv.bias()->value.at(i) =
              static_cast<float>(rng.uniform(-0.5, 0.5));
        }
      }
      const Tensor x =
          Tensor::uniform({c.batch, c.channels, c.h, c.w}, -1, 1, rng);
      const Tensor want =
          depthwise_reference(x, conv.weight().value,
                              bias ? &conv.bias()->value : nullptr,
                              c.stride, c.pad);
      EXPECT_TRUE(same_bits(conv.forward(x), want))
          << "n=" << c.batch << " c=" << c.channels << " in=" << c.h << "x"
          << c.w << " k=" << c.kernel << " s=" << c.stride
          << " p=" << c.pad << " bias=" << bias;
    }
  }
}

TEST(DepthwiseConv, EmptyBatchGivesEmptyOutput) {
  util::Rng rng(750);
  Conv2d conv(4, 4, 3, 2, 1, 4, true, rng);
  const Tensor y = conv.forward(Tensor({0, 4, 9, 9}));
  EXPECT_EQ((tensor::ShapeVec{0, 4, 5, 5}), y.shape());
}

TEST(DepthwiseConv, SameBitsAtPoolSizesOneAndThree) {
  // One shape below the pool's work floor (runs inline) and two above it
  // (planes fan out), each identical at 1 and 3 workers.
  const DwCase cases[] = {{36, 16, 12, 12, 3, 2, 1},
                          {36, 16, 12, 12, 7, 1, 3},
                          {2, 256, 32, 32, 3, 1, 1}};
  for (const DwCase& c : cases) {
    util::Rng rng(800 + c.channels + c.kernel);
    Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                c.channels, true, rng);
    const Tensor x =
        Tensor::uniform({c.batch, c.channels, c.h, c.w}, -1, 1, rng);
    Tensor one, three;
    {
      PoolGuard guard(1);
      one = conv.forward(x);
    }
    {
      PoolGuard guard(3);
      three = conv.forward(x);
    }
    EXPECT_TRUE(same_bits(one, three))
        << "c=" << c.channels << " k=" << c.kernel << " s=" << c.stride;
  }
}

/// The fused writeback composed from its scalar parts: the in-order
/// reference sum, then epilogue_affine and epilogue_apply per element.
/// Null scale means 1, null shift 0, as in GemmEpilogue.
Tensor fused_reference(const Tensor& x, const Tensor& wgt, const float* scale,
                       const float* shift, tensor::EpilogueAct act,
                       long stride, long pad) {
  Tensor y = depthwise_reference(x, wgt, nullptr, stride, pad);
  const long ch = y.dim(1), plane = y.dim(2) * y.dim(3);
  for (long i = 0; i < y.numel(); ++i) {
    const long c = (i / plane) % ch;
    const float es = scale != nullptr ? scale[c] : 1.0f;
    const float et = shift != nullptr ? shift[c] : 0.0f;
    y.data()[i] = tensor::epilogue_apply(
        act, tensor::epilogue_affine(es, y.data()[i], et));
  }
  return y;
}

/// Per-channel folded-BN-like scale and shift, both signs.
std::vector<float> channel_affine(long channels, util::Rng& rng, double lo,
                                  double hi) {
  std::vector<float> v(static_cast<std::size_t>(channels));
  for (float& e : v) e = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

constexpr tensor::EpilogueAct kActs[] = {tensor::EpilogueAct::kNone,
                                         tensor::EpilogueAct::kReLU,
                                         tensor::EpilogueAct::kHSwish};

TEST(DepthwiseConv, FusedBitExactAgainstComposedReference) {
  std::uint64_t seed = 1000;
  for (const DwCase& c : kDwCases) {
    util::Rng rng(++seed);
    Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                c.channels, false, rng);
    conv.set_mode(Mode::kEval);
    const Tensor x =
        Tensor::uniform({c.batch, c.channels, c.h, c.w}, -1, 1, rng);
    const std::vector<float> scale = channel_affine(c.channels, rng, -2, 2);
    const std::vector<float> shift = channel_affine(c.channels, rng, -1, 1);
    for (const tensor::EpilogueAct act : kActs) {
      // Scale and shift, scale only, shift only.
      const float* scales[] = {scale.data(), scale.data(), nullptr};
      const float* shifts[] = {shift.data(), nullptr, shift.data()};
      for (int v = 0; v < 3; ++v) {
        const Tensor got = conv.forward_fused(x, scales[v], shifts[v], act);
        const Tensor want =
            fused_reference(x, conv.weight().value, scales[v], shifts[v],
                            act, c.stride, c.pad);
        EXPECT_TRUE(same_bits(got, want))
            << "n=" << c.batch << " c=" << c.channels << " in=" << c.h
            << "x" << c.w << " k=" << c.kernel << " s=" << c.stride
            << " p=" << c.pad << " act=" << static_cast<int>(act)
            << " variant=" << v;
      }
    }
  }
}

TEST(DepthwiseConv, ServedShapesAtBatchOneAndEight) {
  // perfbench's served arch: its six depthwise signatures, as the
  // unfused eval forward (bias) and the fused one (BN affine + act).
  const DwCase shapes[] = {{0, 8, 16, 16, 3, 1, 1},  {0, 16, 8, 8, 3, 1, 1},
                           {0, 32, 4, 4, 3, 1, 1},   {0, 32, 8, 8, 3, 2, 1},
                           {0, 16, 16, 16, 7, 2, 3}, {0, 16, 16, 16, 3, 2, 1}};
  std::uint64_t seed = 1100;
  for (const DwCase& c : shapes) {
    for (const long batch : {1L, 8L}) {
      util::Rng rng(++seed);
      Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                  c.channels, true, rng);
      for (long i = 0; i < c.channels; ++i) {
        conv.bias()->value.at(i) = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      conv.set_mode(Mode::kEval);
      const Tensor x =
          Tensor::uniform({batch, c.channels, c.h, c.w}, -1, 1, rng);
      EXPECT_TRUE(same_bits(
          conv.forward(x),
          depthwise_reference(x, conv.weight().value, &conv.bias()->value,
                              c.stride, c.pad)))
          << "unfused n=" << batch << " c=" << c.channels << " k="
          << c.kernel << " s=" << c.stride;
      const std::vector<float> scale = channel_affine(c.channels, rng, 0.5, 2);
      const std::vector<float> shift = channel_affine(c.channels, rng, -1, 1);
      for (const tensor::EpilogueAct act : kActs) {
        EXPECT_TRUE(same_bits(
            conv.forward_fused(x, scale.data(), shift.data(), act),
            fused_reference(x, conv.weight().value, scale.data(),
                            shift.data(), act, c.stride, c.pad)))
            << "fused n=" << batch << " c=" << c.channels << " k="
            << c.kernel << " s=" << c.stride
            << " act=" << static_cast<int>(act);
      }
    }
  }
}

TEST(DepthwiseConv, FusedMatchesReferenceAtPoolSizesOneAndThree) {
  // The kernel splits work per channel. Below the pool's work floor
  // (inline), above it with more channels than workers, and above it
  // with fewer channels (2) than workers (3).
  const DwCase cases[] = {{36, 16, 12, 12, 3, 2, 1},
                          {36, 16, 12, 12, 7, 1, 3},
                          {8, 2, 64, 64, 3, 1, 1},
                          {4, 5, 40, 40, 5, 3, 2}};
  for (const DwCase& c : cases) {
    util::Rng rng(1200 + c.channels + c.kernel);
    Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                c.channels, false, rng);
    conv.set_mode(Mode::kEval);
    const Tensor x =
        Tensor::uniform({c.batch, c.channels, c.h, c.w}, -1, 1, rng);
    const std::vector<float> scale = channel_affine(c.channels, rng, -2, 2);
    const std::vector<float> shift = channel_affine(c.channels, rng, -1, 1);
    const Tensor want =
        fused_reference(x, conv.weight().value, scale.data(), shift.data(),
                        tensor::EpilogueAct::kHSwish, c.stride, c.pad);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      PoolGuard guard(threads);
      EXPECT_TRUE(same_bits(
          conv.forward_fused(x, scale.data(), shift.data(),
                             tensor::EpilogueAct::kHSwish),
          want))
          << "threads=" << threads << " c=" << c.channels
          << " k=" << c.kernel << " s=" << c.stride;
    }
  }
}

/// Writes `values` into x at interior and border pixels of every plane:
/// the four corners, the middle of each edge and a few interior pixels.
void plant_specials(Tensor& x, const std::vector<float>& values) {
  const long n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long spots[][2] = {{0, 0},         {0, w - 1},     {h - 1, 0},
                           {h - 1, w - 1}, {0, w / 2},     {h / 2, 0},
                           {h - 1, w / 2}, {h / 2, w - 1}, {h / 2, w / 2},
                           {1, 2},         {h - 2, w - 3}, {h / 2 + 1, 1}};
  std::size_t next = 0;
  for (long s = 0; s < n; ++s) {
    for (long c = 0; c < ch; ++c) {
      for (const auto& spot : spots) {
        x.at(s, c, spot[0], spot[1]) = values[next++ % values.size()];
      }
    }
  }
}

TEST(DepthwiseConv, SpecialInputPixelsMatchReferenceBitForBit) {
  // Two sets, each with a single NaN bit pattern in play so the result
  // does not depend on which NaN operand an add propagates: ±0 and ±inf
  // (NaN only as inf − inf, the default NaN), and ±0 and one quiet NaN
  // (every NaN is that input's).
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> sets[] = {
      {0.0f, -0.0f, inf, -inf, -0.0f, inf},
      {0.0f, -0.0f, std::numeric_limits<float>::quiet_NaN(), -0.0f}};
  const DwCase cases[] = {{2, 3, 9, 9, 3, 1, 1},   {2, 3, 9, 10, 3, 2, 1},
                          {2, 3, 11, 10, 5, 3, 2}, {2, 3, 12, 12, 7, 2, 3},
                          {1, 2, 6, 6, 3, 1, 0}};
  std::uint64_t seed = 1300;
  for (const std::vector<float>& values : sets) {
    for (const DwCase& c : cases) {
      util::Rng rng(++seed);
      Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                  c.channels, true, rng);
      for (long i = 0; i < c.channels; ++i) {
        conv.bias()->value.at(i) = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      conv.set_mode(Mode::kEval);
      Tensor x = Tensor::uniform({c.batch, c.channels, c.h, c.w}, -1, 1, rng);
      plant_specials(x, values);
      EXPECT_TRUE(same_bits(
          conv.forward(x),
          depthwise_reference(x, conv.weight().value, &conv.bias()->value,
                              c.stride, c.pad)))
          << "unfused k=" << c.kernel << " s=" << c.stride
          << " p=" << c.pad;
      const std::vector<float> scale = channel_affine(c.channels, rng, -2, 2);
      for (const tensor::EpilogueAct act : kActs) {
        EXPECT_TRUE(same_bits(
            conv.forward_fused(x, scale.data(), conv.bias()->value.data(),
                               act),
            fused_reference(x, conv.weight().value, scale.data(),
                            conv.bias()->value.data(), act, c.stride,
                            c.pad)))
            << "fused k=" << c.kernel << " s=" << c.stride << " p=" << c.pad
            << " act=" << static_cast<int>(act);
      }
    }
  }
}

TEST(DepthwiseConv, AllNegativeZeroProductsSumToPositiveZero) {
  // Every product is −0 (−0 pixels, positive weights): an in-order sum
  // from 0.0f gives +0 at every output, border or interior. Unfused and
  // without a bias, nothing after the sum could hide a −0.
  const DwCase cases[] = {{2, 3, 9, 9, 3, 1, 1}, {2, 3, 9, 10, 5, 2, 2},
                          {1, 2, 10, 10, 3, 3, 1}};
  for (const DwCase& c : cases) {
    util::Rng rng(1500 + c.kernel);
    Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                c.channels, false, rng);
    for (long i = 0; i < conv.weight().value.numel(); ++i) {
      conv.weight().value.data()[i] = std::fabs(conv.weight().value.data()[i]);
    }
    Tensor x({c.batch, c.channels, c.h, c.w});
    x.fill(-0.0f);
    const Tensor want = depthwise_reference(x, conv.weight().value, nullptr,
                                            c.stride, c.pad);
    const Tensor got = conv.forward(x);
    EXPECT_TRUE(same_bits(got, want)) << "k=" << c.kernel << " s=" << c.stride;
    for (long i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(0u, std::bit_cast<std::uint32_t>(got.data()[i])) << i;
    }
  }
}

TEST(DepthwiseConv, NonFiniteWeightOnPaddedTapGivesNaN) {
  // The finite-weight contract (tensor/depthwise.h): the kernel sums full
  // windows over a 0.0f border, so a non-finite weight meets padding as
  // inf · 0 or NaN · 0 = NaN. Outputs whose window puts that tap on the
  // border are NaN; every other output equals the skipping reference.
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  const DwCase cases[] = {{2, 2, 7, 8, 3, 1, 1}, {1, 2, 9, 9, 5, 2, 2},
                          {1, 2, 10, 10, 3, 3, 1}};
  for (const DwCase& c : cases) {
    for (const float wv : specials) {
      util::Rng rng(1400 + c.kernel);
      Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                  c.channels, false, rng);
      conv.weight().value.at(1, 0, 0, 0) = wv;  // tap (0, 0) of channel 1
      const Tensor x =
          Tensor::uniform({c.batch, c.channels, c.h, c.w}, 0.25f, 1, rng);
      const Tensor got = conv.forward(x);
      const Tensor want = depthwise_reference(x, conv.weight().value,
                                              nullptr, c.stride, c.pad);
      long padded_tap_outputs = 0;
      for (long s = 0; s < c.batch; ++s) {
        for (long ch = 0; ch < c.channels; ++ch) {
          for (long oy = 0; oy < got.dim(2); ++oy) {
            for (long ox = 0; ox < got.dim(3); ++ox) {
              const float g = got.at(s, ch, oy, ox);
              const bool on_border = oy * c.stride - c.pad < 0 ||
                                     ox * c.stride - c.pad < 0;
              if (ch == 1 && on_border) {
                ++padded_tap_outputs;
                EXPECT_TRUE(std::isnan(g)) << "oy=" << oy << " ox=" << ox;
              } else {
                EXPECT_EQ(std::bit_cast<std::uint32_t>(g),
                          std::bit_cast<std::uint32_t>(
                              want.at(s, ch, oy, ox)))
                    << "ch=" << ch << " oy=" << oy << " ox=" << ox;
              }
            }
          }
        }
      }
      EXPECT_GT(padded_tap_outputs, 0);
    }
  }
}

/// int8 depthwise reference: quantize each plane, sum the in-image taps
/// in int32, subtract z_a times their weight sum, then dequantize through
/// the conv's (bias-only) epilogue.
Tensor depthwise_i8_reference(const Tensor& x, Conv2d& conv, long stride,
                              long pad) {
  const QuantState& q = *conv.quant_state();
  const long n = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long k = conv.kernel();
  const long oh = (h + 2 * pad - k) / stride + 1;
  const long ow = (w + 2 * pad - k) / stride + 1;
  const std::int32_t za = q.input.zero_point;
  Tensor y({n, ch, oh, ow});
  std::vector<std::uint8_t> plane(static_cast<std::size_t>(h * w));
  for (long s = 0; s < n; ++s) {
    for (long c = 0; c < ch; ++c) {
      tensor::quantize_u8(x.data() + (s * ch + c) * h * w, plane.size(),
                          q.input, plane.data());
      const std::int8_t* wk = q.qweight.data() + c * k * k;
      const float qs = 1.0f * q.input.scale *
                       q.weight_scales[static_cast<std::size_t>(c)];
      const float et =
          conv.bias() != nullptr ? conv.bias()->value.at(c) : 0.0f;
      for (long oy = 0; oy < oh; ++oy) {
        for (long ox = 0; ox < ow; ++ox) {
          std::int32_t acc = 0, wsum = 0;
          for (long ky = 0; ky < k; ++ky) {
            const long iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (long kx = 0; kx < k; ++kx) {
              const long ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              acc += wk[ky * k + kx] * plane[static_cast<std::size_t>(
                                           iy * w + ix)];
              wsum += wk[ky * k + kx];
            }
          }
          y.at(s, c, oy, ox) = tensor::epilogue_affine(
              qs, static_cast<float>(acc - za * wsum), et);
        }
      }
    }
  }
  return y;
}

TEST(DepthwiseConv, Int8BitExactAgainstBorderSkippingReference) {
  std::uint64_t seed = 900;
  for (const DwCase& c : kDwCases) {
    for (const bool bias : {false, true}) {
      util::Rng rng(++seed);
      Conv2d conv(c.channels, c.channels, c.kernel, c.stride, c.pad,
                  c.channels, bias, rng);
      if (bias) {
        for (long i = 0; i < c.channels; ++i) {
          conv.bias()->value.at(i) =
              static_cast<float>(rng.uniform(-0.5, 0.5));
        }
      }
      conv.set_mode(Mode::kEval);
      // A skewed range, so the zero-point sits well inside (0, 255).
      ASSERT_EQ(1u, calibrate(conv, {Tensor::uniform(
                                        {2, c.channels, c.h, c.w}, -0.5f,
                                        1.5f, rng)}));
      const Tensor x =
          Tensor::uniform({c.batch, c.channels, c.h, c.w}, -0.6f, 1.6f, rng);
      const Tensor got = conv.forward(x);
      EXPECT_TRUE(same_bits(got, depthwise_i8_reference(x, conv, c.stride,
                                                        c.pad)))
          << "n=" << c.batch << " c=" << c.channels << " in=" << c.h << "x"
          << c.w << " k=" << c.kernel << " s=" << c.stride
          << " p=" << c.pad << " bias=" << bias;
    }
  }
}

TEST(ReLUForward, SpecialValuesMatchEpilogueAndOldMask) {
  const float values[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min() / 2.0f,   // denormal
      -std::numeric_limits<float>::min() / 2.0f,  // denormal
      std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      1.5f,
      -2.25f,
  };
  // Long enough that the vectorized body, not just its scalar tail,
  // sees every special value: the pattern repeats at every alignment.
  constexpr long kCount = 15 * 17;
  Tensor x({1, 1, 1, kCount});
  for (long i = 0; i < kCount; ++i) x.data()[i] = values[i % 15];

  ReLU relu;
  const Tensor y = relu.forward(x);
  // backward(ones) is the mask itself: dy * mask with dy == 1.
  const Tensor mask = relu.backward(Tensor::ones({1, 1, 1, kCount}));
  for (long i = 0; i < kCount; ++i) {
    const float v = x.data()[i];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y.data()[i]),
              std::bit_cast<std::uint32_t>(tensor::epilogue_apply(
                  tensor::EpilogueAct::kReLU, v)))
        << "forward at " << i << " (v=" << v << ")";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(mask.data()[i]),
              std::bit_cast<std::uint32_t>(v > 0.0f ? 1.0f : 0.0f))
        << "mask at " << i << " (v=" << v << ")";
  }
}

}  // namespace
}  // namespace hsconas::nn
