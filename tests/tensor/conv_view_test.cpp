// The fp32 implicit-GEMM conv: gemm / gemm_fused over a ConvInput view,
// written straight to NCHW, equal bit for bit to the same GEMM over the
// explicit im2col column matrix scattered to NCHW — for every kernel,
// stride, padding, grouping, straddling tile, K blocking, epilogue and
// small-problem fallback, on a 1- and a 3-worker pool.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "tensor/gemm.h"
#include "tests/core/pool_guard.h"
#include "tests/tensor/conv_view_cases.h"
#include "util/rng.h"

namespace hsconas::tensor {
namespace {

using convtest::ConvCase;

enum class Ep { kNone, kBias, kBnRelu, kHSwish };

struct Epilogue {
  std::vector<float> scale, shift;
  GemmEpilogue ep;
};

Epilogue make_epilogue(Ep kind, long channels, util::Rng& rng) {
  Epilogue e;
  for (long c = 0; c < channels; ++c) {
    e.scale.push_back(static_cast<float>(rng.uniform(0.5, 1.5)));
    e.shift.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
  }
  e.ep.scale = kind == Ep::kBnRelu || kind == Ep::kHSwish ? e.scale.data()
                                                          : nullptr;
  e.ep.shift = e.shift.data();
  e.ep.act = kind == Ep::kBnRelu   ? EpilogueAct::kReLU
             : kind == Ep::kHSwish ? EpilogueAct::kHSwish
                                   : EpilogueAct::kNone;
  return e;
}

/// Runs every group of `c` through the conv view, or through im2col
/// columns and the dense GEMM, into a fresh zero-filled NCHW output.
std::vector<float> run_conv(const ConvCase& c, const std::vector<float>& x,
                            const std::vector<float>& w, Ep kind,
                            const Epilogue& e, bool view) {
  const long cout_g = c.cout / c.groups, ohw = c.ohw();
  const ConvGeom geom = c.geom();
  const long k = geom.in_channels * c.kernel * c.kernel;
  const auto m = static_cast<std::size_t>(cout_g);
  std::vector<float> y(static_cast<std::size_t>(c.batch * c.cout * ohw));
  for (long g = 0; g < c.groups; ++g) {
    const float* wg = w.data() + g * cout_g * k;
    GemmEpilogue gep = e.ep;
    if (gep.scale != nullptr) gep.scale += g * cout_g;
    gep.shift += g * cout_g;
    if (view) {
      const ConvInput<float> in{
          x.data() + g * geom.in_channels * c.size * c.size,
          static_cast<std::size_t>(c.cin * c.size * c.size), geom,
          static_cast<std::size_t>(c.batch)};
      const ConvOutput out{y.data() + g * cout_g * ohw,
                           static_cast<std::size_t>(c.cout * ohw)};
      if (kind == Ep::kNone) {
        gemm(m, wg, static_cast<std::size_t>(k), in, out);
      } else {
        gemm_fused(m, wg, static_cast<std::size_t>(k), in, out, gep);
      }
      continue;
    }
    const std::vector<float> cols = convtest::batch_columns(x, c, g);
    const auto n = static_cast<std::size_t>(c.batch * ohw);
    std::vector<float> cmat(m * n);
    if (kind == Ep::kNone) {
      gemm(m, n, static_cast<std::size_t>(k), 1.0f, wg, cols.data(), 0.0f,
           cmat.data());
    } else {
      gemm_fused(m, n, static_cast<std::size_t>(k), 1.0f, wg, cols.data(),
                 cmat.data(), gep);
    }
    convtest::scatter_nchw(cmat, c, g, y);
  }
  return y;
}

TEST(ConvView, MatchesIm2colGemmBitForBit) {
  util::Rng rng(71);
  for (const std::size_t pool : {1u, 3u}) {
    testutil::PoolGuard guard(pool);
    for (const ConvCase& c : convtest::conv_view_cases()) {
      std::vector<float> x(
          static_cast<std::size_t>(c.batch * c.cin * c.size * c.size));
      for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      std::vector<float> w(static_cast<std::size_t>(
          c.cout * (c.cin / c.groups) * c.kernel * c.kernel));
      for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      w[0] = 0.0f;  // the small path skips zero weights
      for (const Ep kind : {Ep::kNone, Ep::kBias, Ep::kBnRelu, Ep::kHSwish}) {
        const Epilogue e = make_epilogue(kind, c.cout, rng);
        const std::vector<float> want = run_conv(c, x, w, kind, e, false);
        const std::vector<float> got = run_conv(c, x, w, kind, e, true);
        ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                 want.size() * sizeof(float)))
            << c << " epilogue " << static_cast<int>(kind)
            << " pool " << pool;
      }
    }
  }
}

TEST(ConvView, OverwritesStaleOutput) {
  // y = A·B on both dispatch paths: whatever y held before is ignored,
  // including NaNs, exactly as the dense GEMM with beta = 0 ignores C.
  util::Rng rng(72);
  for (const ConvCase& c : {ConvCase{2, 3, 4, 1, 5, 3, 1, 1},
                            ConvCase{4, 3, 8, 1, 6, 3, 1, 1}}) {
    std::vector<float> x(
        static_cast<std::size_t>(c.batch * c.cin * c.size * c.size));
    for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> w(static_cast<std::size_t>(c.cout * c.cin * 9));
    for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const Epilogue none = make_epilogue(Ep::kNone, c.cout, rng);
    const std::vector<float> want = run_conv(c, x, w, Ep::kNone, none, false);
    std::vector<float> y(want.size(), std::numeric_limits<float>::quiet_NaN());
    const ConvInput<float> in{x.data(),
                              static_cast<std::size_t>(c.cin * c.size * c.size),
                              c.geom(), static_cast<std::size_t>(c.batch)};
    gemm(static_cast<std::size_t>(c.cout), w.data(),
         static_cast<std::size_t>(c.cin * 9), in,
         ConvOutput{y.data(), static_cast<std::size_t>(c.cout * c.ohw())});
    ASSERT_EQ(0, std::memcmp(want.data(), y.data(), y.size() * sizeof(float)))
        << c;
  }
}

}  // namespace
}  // namespace hsconas::tensor
