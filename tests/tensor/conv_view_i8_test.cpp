// The int8 implicit-GEMM conv: gemm_i8_requant over a ConvInput view of
// u8 codes, requantized straight into NCHW, equal bit for bit to a naive
// int32 product over the explicit u8 column matrix (taps outside the
// image hold the zero point) followed by requant_rows — on the same case
// grid as the fp32 test, for every epilogue, on a 1- and a 3-worker pool;
// and a view over a channel window of a wider image.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/gemm_i8.h"
#include "tests/core/pool_guard.h"
#include "tests/tensor/conv_view_cases.h"
#include "util/rng.h"

namespace hsconas::tensor {
namespace {

using convtest::ConvCase;

struct Epilogue {
  std::vector<float> scale, shift;
  std::vector<std::int32_t> acc_bias;
  QuantEpilogue ep;
};

/// kind 0: dequantize only; 1: + bias; 2: + BN and ReLU; 3: + h-swish.
Epilogue make_epilogue(int kind, long channels, util::Rng& rng) {
  Epilogue e;
  for (long c = 0; c < channels; ++c) {
    e.scale.push_back(static_cast<float>(rng.uniform(1e-3, 1e-2)));
    e.shift.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
    e.acc_bias.push_back(static_cast<std::int32_t>(rng.randint(-900, 900)));
  }
  e.ep.scale = e.scale.data();
  e.ep.shift = kind == 0 ? nullptr : e.shift.data();
  e.ep.acc_bias = e.acc_bias.data();
  e.ep.act = kind == 2   ? EpilogueAct::kReLU
             : kind == 3 ? EpilogueAct::kHSwish
                         : EpilogueAct::kNone;
  return e;
}

std::vector<float> run_conv(const ConvCase& c,
                            const std::vector<std::uint8_t>& codes,
                            std::uint8_t z, const std::vector<std::int8_t>& w,
                            const Epilogue& e, bool view) {
  const long cout_g = c.cout / c.groups, ohw = c.ohw();
  const ConvGeom geom = c.geom();
  const long k = geom.in_channels * c.kernel * c.kernel;
  const auto m = static_cast<std::size_t>(cout_g);
  std::vector<float> y(static_cast<std::size_t>(c.batch * c.cout * ohw));
  for (long g = 0; g < c.groups; ++g) {
    const std::int8_t* wg = w.data() + g * cout_g * k;
    QuantEpilogue gep = e.ep;
    gep.scale += g * cout_g;
    if (gep.shift != nullptr) gep.shift += g * cout_g;
    gep.acc_bias += g * cout_g;
    if (view) {
      const ConvInput<std::uint8_t> in{
          codes.data() + g * geom.in_channels * c.size * c.size,
          static_cast<std::size_t>(c.cin * c.size * c.size), geom,
          static_cast<std::size_t>(c.batch), z};
      gemm_i8_requant(m, wg, static_cast<std::size_t>(k), in,
                      ConvOutput{y.data() + g * cout_g * ohw,
                                 static_cast<std::size_t>(c.cout * ohw)},
                      gep);
      continue;
    }
    // u8 columns: im2col of (code − z), whose padding reads 0, plus z.
    std::vector<float> centered(codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      centered[i] = static_cast<float>(codes[i]) - static_cast<float>(z);
    }
    const std::vector<float> cols = convtest::batch_columns(centered, c, g);
    std::vector<std::uint8_t> ucols(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) {
      ucols[i] = static_cast<std::uint8_t>(cols[i] + static_cast<float>(z));
    }
    // The oracle: a naive int32 product over the columns.
    const auto n = static_cast<std::size_t>(c.batch * ohw);
    const auto depth = static_cast<std::size_t>(k);
    std::vector<std::int32_t> acc(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = 0; p < depth; ++p) {
        const std::int32_t wv = wg[i * depth + p];
        const std::uint8_t* col = ucols.data() + p * n;
        for (std::size_t j = 0; j < n; ++j) acc[i * n + j] += wv * col[j];
      }
    }
    std::vector<float> cmat(m * n);
    requant_rows(gep, 0, m, n, acc.data(), n, cmat.data(), n);
    convtest::scatter_nchw(cmat, c, g, y);
  }
  return y;
}

TEST(ConvViewI8, MatchesIm2colGemmBitForBit) {
  util::Rng rng(73);
  const std::uint8_t z = 37;
  for (const std::size_t pool : {1u, 3u}) {
    testutil::PoolGuard guard(pool);
    for (const ConvCase& c : convtest::conv_view_cases()) {
      std::vector<std::uint8_t> codes(
          static_cast<std::size_t>(c.batch * c.cin * c.size * c.size));
      for (auto& v : codes) v = static_cast<std::uint8_t>(rng.randint(0, 255));
      std::vector<std::int8_t> w(static_cast<std::size_t>(
          c.cout * (c.cin / c.groups) * c.kernel * c.kernel));
      for (auto& v : w) v = static_cast<std::int8_t>(rng.randint(-127, 127));
      for (int kind = 0; kind < 4; ++kind) {
        const Epilogue e = make_epilogue(kind, c.cout, rng);
        const std::vector<float> want = run_conv(c, codes, z, w, e, false);
        const std::vector<float> got = run_conv(c, codes, z, w, e, true);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << c << " epilogue " << kind << " pool " << pool;
      }
    }
  }
}

TEST(ConvViewI8, PaddedTapsReadTheZeroPoint) {
  // Every code equals the zero point, so every tap, inside the image or
  // in its padding, reads z: each channel's accumulator is z · Σw at all
  // output pixels, borders included.
  const ConvCase c{2, 3, 4, 1, 5, 3, 1, 1};
  const std::uint8_t z = 201;
  const std::vector<std::uint8_t> codes(2 * 3 * 25, z);
  util::Rng rng(74);
  std::vector<std::int8_t> w(4 * 27);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.randint(-127, 127));
  std::vector<float> y(2 * 4 * 25, -1.0f);
  QuantEpilogue ep;  // raw accumulators, as floats
  gemm_i8_requant(4, w.data(), 27,
                  ConvInput<std::uint8_t>{codes.data(), 75, c.geom(), 2, z},
                  ConvOutput{y.data(), 100}, ep);
  for (long o = 0; o < 4; ++o) {
    std::int32_t sum = 0;
    for (long p = 0; p < 27; ++p) sum += w[static_cast<std::size_t>(o * 27 + p)];
    for (long s = 0; s < 2; ++s) {
      for (long pix = 0; pix < 25; ++pix) {
        ASSERT_EQ(static_cast<float>(z * sum),
                  y[static_cast<std::size_t>((s * 4 + o) * 25 + pix)])
            << "channel " << o << " pixel " << pix;
      }
    }
  }
}

TEST(ConvViewI8, ReadsAChannelWindowOfAWiderImage) {
  // A width-sliced layer reads channels [c0, c0 + cin) of a wider input:
  // the view starts at channel c0 and keeps the full image's sample
  // stride, and no tap reads a channel outside the window. 3×3 taps,
  // stride 2, pad 1.
  const std::size_t total = 7, c0 = 2, cin = 3, size = 6, m = 5, batch = 2;
  const std::size_t hw = size * size, k = cin * 9;
  const ConvGeom geom{static_cast<long>(cin), static_cast<long>(size),
                      static_cast<long>(size), 3, 2, 1};
  const auto ow = static_cast<std::size_t>(geom.out_w());
  const auto ohw = static_cast<std::size_t>(geom.out_h()) * ow;
  const std::uint8_t z = 90;
  util::Rng rng(75);
  std::vector<std::uint8_t> codes(batch * total * hw);
  for (auto& v : codes) v = static_cast<std::uint8_t>(rng.randint(0, 255));
  std::vector<std::int8_t> w(m * k);
  for (auto& v : w) v = static_cast<std::int8_t>(rng.randint(-127, 127));
  const Epilogue e = make_epilogue(3, static_cast<long>(m), rng);
  std::vector<float> got(batch * m * ohw, -1.0f);
  gemm_i8_requant(m, w.data(), k,
                  ConvInput<std::uint8_t>{codes.data() + c0 * hw, total * hw,
                                          geom, batch, z},
                  ConvOutput{got.data(), m * ohw}, e.ep);
  // The oracle: a naive int32 window sum per (sample, pixel) column.
  const std::size_t n = batch * ohw;
  std::vector<std::int32_t> acc(m * n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t s = 0; s < batch; ++s) {
      for (std::size_t pix = 0; pix < ohw; ++pix) {
        std::int32_t sum = 0;
        for (std::size_t t = 0; t < k; ++t) {
          const std::size_t c = t / 9, ky = t / 3 % 3, kx = t % 3;
          // Unsigned wrap puts the top/left padding past `size` too.
          const std::size_t iy = pix / ow * 2 + ky - 1;
          const std::size_t ix = pix % ow * 2 + kx - 1;
          const std::int32_t code =
              iy < size && ix < size
                  ? codes[(s * total + c0 + c) * hw + iy * size + ix]
                  : z;
          sum += w[i * k + t] * code;
        }
        acc[i * n + s * ohw + pix] = sum;
      }
    }
  }
  std::vector<float> cmat(m * n);
  requant_rows(e.ep, 0, m, n, acc.data(), n, cmat.data(), n);
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(0, std::memcmp(cmat.data() + i * n + s * ohw,
                               got.data() + (s * m + i) * ohw,
                               ohw * sizeof(float)))
          << "sample " << s << " channel " << i;
    }
  }
}

}  // namespace
}  // namespace hsconas::tensor
