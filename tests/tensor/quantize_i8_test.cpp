// Contracts for the int8 activation kernels (tensor/quantize_i8.h):
// quantize_u8 equals the scalar nearbyintf formula bit for bit at every
// length, alignment and edge value; the requantizing writeback equals the
// scalar requant formula (epilogue_affine's two roundings, then the
// activation) for every activation, including partial vector tails; the
// depthwise kernel equals a naive integer loop (the int8 GEMM's u8 window
// gather is pinned in conv_view_i8_test.cpp).
// This file is built without the native-ISA flag, so every reference
// below runs the plain scalar libm / IEEE path.

#include "tensor/depthwise.h"
#include "tensor/quantize_i8.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace hsconas::tensor {
namespace {

std::uint8_t quantize_reference(float x, QuantParams p) {
  const float v = std::nearbyintf(x * (1.0f / p.scale)) +
                  static_cast<float>(p.zero_point);
  return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
}

float requant_reference(const QuantEpilogue& ep, std::size_t row,
                        std::int32_t acc) {
  const std::int32_t b = ep.acc_bias != nullptr ? ep.acc_bias[row] : 0;
  const float s = ep.scale != nullptr ? ep.scale[row] : 1.0f;
  const float t = ep.shift != nullptr ? ep.shift[row] : 0.0f;
  return epilogue_apply(ep.act,
                        epilogue_affine(s, static_cast<float>(acc + b), t));
}

bool same_bits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Inputs that stress the rounding and clamping: ±x.5 ties (under a unit
/// scale they are exact ties), codes just inside and outside [0, 255],
/// signed zeros, magnitudes past 2^23 (where every float is an integer),
/// infinities, and ordinary random values.
std::vector<float> edge_inputs(util::Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {0.5f,   1.5f,   2.5f,    -0.5f,   -1.5f,  -2.5f,
                          126.5f, 127.5f, -127.5f, 254.5f,  255.5f, 256.0f,
                          -1.0f,  -0.0f,  0.0f,    9.0e6f,  -9.0e6f, 3.0e9f,
                          -3.0e9f, inf,   -inf,    1.0e-30f, -1.0e-30f};
  while (v.size() < 160) {
    v.push_back(static_cast<float>(rng.uniform(-300, 300)));
  }
  return v;
}

TEST(QuantizeU8, MatchesScalarFormulaBitForBit) {
  util::Rng rng(61);
  const std::vector<float> pool = edge_inputs(rng);
  const QuantParams params[] = {
      {1.0f, 0}, {1.0f, 128}, {0.5f, 255}, {0.0371f, 7}, {3.0e-3f, 200}};
  constexpr std::size_t kMaxLen = 67, kSlack = 8;
  for (const QuantParams& p : params) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        // Misaligned source and destination: both start `offset`
        // elements into their buffers; a sentinel tail must survive.
        std::vector<float> x(offset + len);
        for (std::size_t i = 0; i < len; ++i) {
          x[offset + i] = pool[(i * 7 + len + offset) % pool.size()];
        }
        std::vector<std::uint8_t> out(offset + len + kSlack, 0xA5);
        quantize_u8(x.data() + offset, len, p, out.data() + offset);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(quantize_reference(x[offset + i], p), out[offset + i])
              << "x=" << x[offset + i] << " scale=" << p.scale
              << " zp=" << p.zero_point << " len=" << len
              << " offset=" << offset << " i=" << i;
        }
        for (std::size_t i = 0; i < offset; ++i) ASSERT_EQ(0xA5, out[i]);
        for (std::size_t i = offset + len; i < out.size(); ++i) {
          ASSERT_EQ(0xA5, out[i]) << "wrote past the end, len=" << len;
        }
      }
    }
  }
}

TEST(QuantizeU8, TiesRoundToEvenAndClampAtTheCodeRange) {
  const QuantParams unit{1.0f, 0};
  const float x[] = {0.5f, 1.5f, 2.5f, 3.5f, -0.5f, -0.0f, 254.5f, 255.5f,
                     -7.0f, std::numeric_limits<float>::infinity(),
                     -std::numeric_limits<float>::infinity()};
  std::uint8_t q[std::size(x)];
  quantize_u8(x, std::size(x), unit, q);
  const std::uint8_t want[] = {0, 2, 2, 4, 0, 0, 254, 255, 0, 255, 0};
  for (std::size_t i = 0; i < std::size(x); ++i) {
    EXPECT_EQ(want[i], q[i]) << "x=" << x[i];
  }
}

TEST(RequantRows, MatchesScalarRequantFormulaForEveryAct) {
  util::Rng rng(63);
  constexpr std::size_t kRows = 3, kMaxLen = 67, kLd = kMaxLen + 5;
  std::vector<std::int32_t> acc(kRows * kLd);
  for (auto& v : acc) v = static_cast<std::int32_t>(rng.randint(-60000, 60000));
  std::vector<float> scale(kRows + 2), shift(kRows + 2);
  std::vector<std::int32_t> acc_bias(kRows + 2);
  for (std::size_t i = 0; i < scale.size(); ++i) {
    scale[i] = static_cast<float>(rng.uniform(1e-4, 0.05));
    shift[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    acc_bias[i] = static_cast<std::int32_t>(rng.randint(-20000, 20000));
  }
  for (const EpilogueAct act :
       {EpilogueAct::kNone, EpilogueAct::kReLU, EpilogueAct::kHSwish}) {
    for (const bool null_fields : {false, true}) {
      QuantEpilogue ep;
      ep.act = act;
      if (!null_fields) {
        ep.scale = scale.data();
        ep.shift = shift.data();
        ep.acc_bias = acc_bias.data();
      }
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        const std::size_t row0 = n % 3;  // rows row0 .. row0 + kRows - 1
        std::vector<float> out(kRows * kLd, 1234.5f);
        requant_rows(ep, row0, kRows, n, acc.data(), kLd, out.data(), kLd);
        for (std::size_t r = 0; r < kRows; ++r) {
          for (std::size_t j = 0; j < kLd; ++j) {
            const float got = out[r * kLd + j];
            if (j >= n) {
              ASSERT_EQ(1234.5f, got) << "wrote past the row, n=" << n;
              continue;
            }
            const float want =
                requant_reference(ep, row0 + r, acc[r * kLd + j]);
            ASSERT_TRUE(same_bits(want, got))
                << "act=" << static_cast<int>(act) << " null=" << null_fields
                << " n=" << n << " r=" << r << " j=" << j << ": " << want
                << " vs " << got;
          }
        }
      }
    }
  }
}

/// Code of padded plane p at (y, x) in padded coordinates: z outside the
/// h × w image.
std::int32_t padded_code(const std::vector<std::uint8_t>& codes,
                         std::size_t plane_stride, long p, const ConvGeom& g,
                         std::uint8_t z, long y, long x) {
  const long iy = y - g.pad, ix = x - g.pad;
  if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) return z;
  return codes[static_cast<std::size_t>(p) * plane_stride +
               static_cast<std::size_t>(iy * g.in_w + ix)];
}

TEST(DepthwiseI8, MatchesNaiveIntegerSum) {
  util::Rng rng(64);
  const std::uint8_t z = 93;
  for (const long planes : {1L, 3L}) {
    for (const long k : {1L, 3L, 5L, 7L}) {
      for (const long stride : {1L, 2L, 3L}) {
        for (const long size : {4L, 9L, 17L}) {
          for (const long pad : {0L, k / 2}) {
            // Non-square planes with odd sides, and a plane stride with a
            // gap, so blocks of a stack start on different row phases.
            const ConvGeom g{1, size + 2, size, k, stride, pad};
            if (size + 2 * pad < k) continue;  // no full window fits
            const auto plane_stride =
                static_cast<std::size_t>(g.in_h * g.in_w + 5);
            std::vector<std::uint8_t> codes(
                static_cast<std::size_t>(planes) * plane_stride);
            for (auto& v : codes) {
              v = static_cast<std::uint8_t>(rng.randint(0, 255));
            }
            std::vector<std::int8_t> wk(static_cast<std::size_t>(k * k));
            for (auto& v : wk) {
              v = static_cast<std::int8_t>(rng.randint(-127, 127));
            }
            const long oh = g.out_h(), ow = g.out_w();
            std::vector<std::int32_t> acc(
                static_cast<std::size_t>(planes * oh * ow), -1);
            depthwise_i8(codes.data(), plane_stride, planes, g, z, wk.data(),
                         acc.data());
            for (long p = 0; p < planes; ++p) {
              for (long oy = 0; oy < oh; ++oy) {
                for (long ox = 0; ox < ow; ++ox) {
                  std::int32_t want = 0;
                  for (long ky = 0; ky < k; ++ky) {
                    for (long kx = 0; kx < k; ++kx) {
                      want += wk[static_cast<std::size_t>(ky * k + kx)] *
                              padded_code(codes, plane_stride, p, g, z,
                                          oy * stride + ky, ox * stride + kx);
                    }
                  }
                  ASSERT_EQ(want, acc[static_cast<std::size_t>(
                                      (p * oh + oy) * ow + ox)])
                      << "planes=" << planes << " k=" << k
                      << " stride=" << stride << " size=" << size
                      << " pad=" << pad << " p=" << p << " oy=" << oy
                      << " ox=" << ox;
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hsconas::tensor
