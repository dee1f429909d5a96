#pragma once

// The case grid shared by the conv-view GEMM tests (conv_view_test.cpp
// for fp32, conv_view_i8_test.cpp for int8): each case is lowered both
// through a ConvInput view and through an explicit im2col column matrix,
// and the two GEMM results must match bit for bit.

#include <ostream>
#include <vector>

#include "tensor/im2col.h"

namespace hsconas::tensor::convtest {

struct ConvCase {
  long batch, cin, cout, groups, size, kernel, stride, pad;

  ConvGeom geom() const {
    return {cin / groups, size, size, kernel, stride, pad};
  }
  long ohw() const { return geom().out_h() * geom().out_w(); }
};

inline std::ostream& operator<<(std::ostream& os, const ConvCase& c) {
  return os << "batch " << c.batch << " cin " << c.cin << " cout " << c.cout
            << " groups " << c.groups << " size " << c.size << " k "
            << c.kernel << " stride " << c.stride << " pad " << c.pad;
}

inline std::vector<ConvCase> conv_view_cases() {
  std::vector<ConvCase> cases;
  // Kernels 1/3/5/7 at strides 1/2 with no padding and with k/2.
  for (const long k : {1L, 3L, 5L, 7L}) {
    for (const long stride : {1L, 2L}) {
      for (const long pad : {0L, k / 2}) {
        cases.push_back({3, 4, 6, 1, 9, k, stride, pad});
      }
    }
  }
  cases.push_back({4, 6, 8, 2, 7, 3, 1, 1});  // grouped, not depthwise
  cases.push_back({5, 6, 9, 3, 5, 1, 2, 0});  // grouped 1×1, strided
  // Output planes of 6×6 and 3×3 at batch 36: most 16-column tiles
  // straddle two samples.
  cases.push_back({36, 16, 16, 1, 6, 1, 1, 0});
  cases.push_back({36, 32, 32, 1, 3, 1, 1, 0});
  cases.push_back({36, 8, 12, 1, 6, 3, 1, 1});
  // k = 288 > 240: the fp32 GEMM runs two K blocks; the second case is
  // also big enough to run on the pool.
  cases.push_back({4, 32, 24, 1, 6, 3, 1, 1});
  cases.push_back({36, 32, 64, 1, 6, 3, 1, 1});
  // The unpacked small path: too few flops, and too few rows.
  cases.push_back({1, 2, 3, 1, 3, 1, 1, 0});
  cases.push_back({3, 4, 2, 1, 5, 3, 1, 1});
  return cases;
}

/// The group-g column matrix of x (NCHW, c.cin channels) over the whole
/// batch: sample s's im2col panel in columns [s·ohw, (s+1)·ohw).
inline std::vector<float> batch_columns(const std::vector<float>& x,
                                        const ConvCase& c, long g) {
  const ConvGeom geom = c.geom();
  const long hw = c.size * c.size, ohw = c.ohw();
  const long k = geom.in_channels * c.kernel * c.kernel, n = c.batch * ohw;
  std::vector<float> panel(static_cast<std::size_t>(k * ohw));
  std::vector<float> cols(static_cast<std::size_t>(k * n));
  for (long s = 0; s < c.batch; ++s) {
    im2col(x.data() + (s * c.cin + g * geom.in_channels) * hw, geom,
           panel.data());
    for (long r = 0; r < k; ++r) {
      for (long j = 0; j < ohw; ++j) {
        cols[static_cast<std::size_t>(r * n + s * ohw + j)] =
            panel[static_cast<std::size_t>(r * ohw + j)];
      }
    }
  }
  return cols;
}

/// Scatter a group's GEMM result C (cout/groups × batch·ohw) into the
/// NCHW output y.
inline void scatter_nchw(const std::vector<float>& cmat, const ConvCase& c,
                         long g, std::vector<float>& y) {
  const long m = c.cout / c.groups, ohw = c.ohw(), n = c.batch * ohw;
  for (long i = 0; i < m; ++i) {
    for (long s = 0; s < c.batch; ++s) {
      for (long j = 0; j < ohw; ++j) {
        y[static_cast<std::size_t>((s * c.cout + g * m + i) * ohw + j)] =
            cmat[static_cast<std::size_t>(i * n + s * ohw + j)];
      }
    }
  }
}

}  // namespace hsconas::tensor::convtest
