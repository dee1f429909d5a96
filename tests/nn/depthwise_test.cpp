// Bit-exactness of the direct depthwise conv (fp32 and int8) and of the
// branch-free ReLU forward. The fp32 kernel computes each output's valid
// tap window once and vectorizes interior columns across ox; the contract
// is that every output still adds its in-image taps in (ky, kx) order
// from 0.0f, so it must equal, bit for bit, a float reference that
// bounds-checks every tap. (ConvReference in test_nn checks the same
// forward against a double-precision definition, with a tolerance.) The
// int8 kernel sums a zero-point-padded plane over full windows; it must
// equal the form that skips border taps and corrects by their weight sum.

#include <gtest/gtest.h>

#include <bit>
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

// k in {3, 5, 7} x stride in {1, 2}; square, non-square, inputs smaller
// than the kernel (every output a border output), unpadded and
// over-padded geometries, and the proxy search shapes at batch 36.
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
      const std::int8_t* wk = q.qweight.i8_data() + c * k * k;
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
