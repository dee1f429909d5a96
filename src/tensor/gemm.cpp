#include "tensor/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/gemm_driver.h"

namespace hsconas::tensor {

namespace {

using gemm_driver::kMR;
using gemm_driver::kNR;
using gemm_driver::Tile;

/// Kernel-entry accounting: one relaxed counter bump per public gemm call
/// (never per tile/chunk), so the observability cost is invisible next to
/// the O(mnk) work.
void count_gemm_entry(obs::Counter& calls, std::size_t m, std::size_t n,
                      std::size_t k) {
  static obs::Counter& flops = obs::counter("hsconas.gemm.flops");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
}

/// C (m×n, row stride ldc) *= beta.
void scale_c(std::size_t m, std::size_t n, std::size_t ldc, float beta,
             float* c) {
  if (beta == 1.0f) return;
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

/// Apply the epilogue of C row i to the n values at v, in place.
void epilogue_row(const GemmEpilogue& ep, std::size_t i, float* v,
                  std::size_t n) {
  const float s = ep.scale != nullptr ? ep.scale[i] : 1.0f;
  const float t = ep.shift != nullptr ? ep.shift[i] : 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    v[j] = epilogue_apply(ep.act, epilogue_affine(s, v[j], t));
  }
}

/// C_tile (mr×nr) += Ap_panel (MR×kc) · Bp_panel (kc×NR), with the fused
/// per-row epilogue applied during the store when `ep` is non-null (the
/// dispatch passes it only on the final K block, when the tile's
/// accumulation is complete). `row0` is the tile's absolute C row, the
/// index into the epilogue's scale/shift vectors. `first` reads C as
/// zeros, for an output that the first K block overwrites.
///
/// The accumulator tile is kMR vectors of kNR floats held in registers for
/// the whole k loop; each k step is one B vector load plus kMR
/// broadcast-FMAs, with no branches and no C traffic. GNU vector
/// extensions pin the vector axis to the NR dimension — left to its own
/// devices the auto-vectorizer picks the (wrong) MR axis and drowns the
/// FMAs in shuffles. On AVX-512 each row is one zmm; on AVX2 the compiler
/// splits rows into two ymm halves.
typedef float VecNR __attribute__((vector_size(kNR * sizeof(float))));

void micro_kernel(std::size_t kc, const float* HSCONAS_RESTRICT ap,
                  const float* HSCONAS_RESTRICT bp, float* HSCONAS_RESTRICT c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  const GemmEpilogue* ep, std::size_t row0, bool first) {
  VecNR acc[kMR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    VecNR bv;
    // Unaligned vector load, not deserialization: memcpy is the only
    // UB-free float→VecNR pun and compiles to a single vmovups.
    // hsconas-lint-allow(serial-raw-memcpy)
    std::memcpy(&bv, bp + p * kNR, sizeof(bv));
    const float* HSCONAS_RESTRICT arow = ap + p * kMR;
    for (std::size_t i = 0; i < kMR; ++i) acc[i] += arow[i] * bv;
  }
  if (nr == kNR) {
    // Full-width rows finish their sums as vectors.
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      VecNR cv = {};
      // hsconas-lint-allow(serial-raw-memcpy) — vector load/store puns.
      if (!first) std::memcpy(&cv, crow, sizeof(cv));
      acc[i] += cv;
      // hsconas-lint-allow(serial-raw-memcpy)
      if (ep == nullptr) std::memcpy(crow, &acc[i], sizeof(cv));
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        acc[i][j] += first ? 0.0f : crow[j];
        if (ep == nullptr) crow[j] = acc[i][j];
      }
    }
  }
  if (ep == nullptr) return;
  // The fused writeback applies the per-row affine + activation to the
  // finished sums while the tile is still hot, so it costs no extra pass
  // over C; epilogue_rows runs each row as one vector pass.
  alignas(64) float tile[kMR * kNR];
  // hsconas-lint-allow(serial-raw-memcpy) — spill the register tile.
  std::memcpy(tile, acc, sizeof(acc));
  epilogue_rows(*ep, row0, mr, nr, tile, kNR, c, ldc);
}

/// The fp32 kernel of the blocked driver (tensor/gemm_driver.h). K runs
/// in kKC blocks: the shared packed B block (kKC×kNC) stays L2/L3-resident
/// for a whole K step while every M chunk streams over it, and each
/// worker's private packed A chunk (kMChunk×kKC ≈ 11 KB) stays in L1.
struct F32Gemm : gemm_driver::GemmDims {
  using APack = float;
  using BPack = float;
  static constexpr std::size_t kKC = 240;
  static constexpr std::size_t kKStep = 1;

  float alpha;
  const float* a;
  std::size_t lda;
  bool atrans;
  const float* b;
  std::size_t ldb;
  bool btrans;
  float* c;
  const GemmEpilogue* ep;        // null: plain accumulate
  const ConvInput<float>* conv;  // set: B is this view (b, ldb unused)
  std::size_t path_m, path_n;    // the product the dispatch sizes

  /// Pack the (mc×kc) block of A at logical (i0, pc) into MR-row panels:
  /// panel ip holds kc runs of MR column-adjacent values, zero-padded past
  /// mc, with alpha folded in. `atrans`: A is stored k×m (gemm_at_b).
  void pack_a(std::size_t i0, std::size_t pc, std::size_t mc, std::size_t kc,
              float* HSCONAS_RESTRICT ap) const {
    for (std::size_t ip = 0; ip < mc; ip += kMR) {
      const std::size_t mr = std::min(kMR, mc - ip);
      for (std::size_t p = 0; p < kc; ++p) {
        if (atrans) {
          const float* src = a + (pc + p) * lda + i0 + ip;
          for (std::size_t i = 0; i < mr; ++i) ap[i] = alpha * src[i];
        } else {
          const float* src = a + (i0 + ip) * lda + pc + p;
          for (std::size_t i = 0; i < mr; ++i) ap[i] = alpha * src[i * lda];
        }
        for (std::size_t i = mr; i < kMR; ++i) ap[i] = 0.0f;
        ap += kMR;
      }
    }
  }

  /// Pack the kc×NR panel of B at rows [pc, pc + kc), columns
  /// [j0, j0 + nr): kc runs of NR row-adjacent values, zero-padded past
  /// nr. `btrans`: B is stored n×k (gemm_a_bt) and is transposed here. A
  /// conv view gathers its windows straight from the input.
  void pack_b(std::size_t pc, std::size_t kc, std::size_t j0, std::size_t nr,
              float* HSCONAS_RESTRICT bp) const {
    if (conv != nullptr) {
      if (nr < kNR) std::fill(bp, bp + kc * kNR, 0.0f);
      gather_conv_rows<1>(*conv, pc, kc, j0, nr,
                          [&](std::size_t p) { return bp + (p - pc) * kNR; });
    } else if (!btrans) {
      for (std::size_t p = 0; p < kc; ++p, bp += kNR) {
        const float* src = b + (pc + p) * ldb + j0;
        for (std::size_t j = 0; j < nr; ++j) bp[j] = src[j];
        for (std::size_t j = nr; j < kNR; ++j) bp[j] = 0.0f;
      }
    } else {
      std::memset(bp, 0, kc * kNR * sizeof(float));
      for (std::size_t j = 0; j < nr; ++j) {
        const float* src = b + (j0 + j) * ldb + pc;
        for (std::size_t p = 0; p < kc; ++p) bp[p * kNR + j] = src[p];
      }
    }
  }

  /// Copy the C block under tile t into `buf` (row stride kNR), or back
  /// into C when `to_c`, one sample's piece at a time.
  void copy_tile(const Tile& t, float* buf, bool to_c) const {
    for_each_sample_piece(t.j0, t.nr, plane, [&](std::size_t s,
                                                 std::size_t pix,
                                                 std::size_t at,
                                                 std::size_t len) {
      float* cs = c + s * c_stride + t.row0 * plane + pix;
      for (std::size_t i = 0; i < t.mr; ++i) {
        float* crow = cs + i * plane;
        float* trow = buf + i * kNR + at;
        const float* from = to_c ? trow : crow;
        float* to = to_c ? crow : trow;
        for (std::size_t j = 0; j < len; ++j) to[j] = from[j];
      }
    });
  }

  /// Run the microkernel on tile t, with the fused epilogue on the last K
  /// block; a conv view's first K block overwrites C. In place when the
  /// tile lies in one sample (always, for a dense C), else through a stack
  /// tile, loaded from C after the first K block and copied back piece by
  /// piece — the same values either way.
  void tile(std::size_t kc, const float* ap, const float* bp, const Tile& t,
            bool first_k, bool last_k) const {
    const GemmEpilogue* tep = last_k ? ep : nullptr;
    const bool first = conv != nullptr && first_k;
    if (t.pix + t.nr <= plane) {
      micro_kernel(kc, ap, bp, c + t.s * c_stride + t.row0 * plane + t.pix,
                   plane, t.mr, t.nr, tep, t.row0, first);
      return;
    }
    alignas(64) float buf[kMR * kNR];
    if (!first) copy_tile(t, buf, /*to_c=*/false);
    micro_kernel(kc, ap, bp, buf, kNR, t.mr, t.nr, tep, t.row0, first);
    copy_tile(t, buf, /*to_c=*/true);
  }

  void small() const { conv != nullptr ? small_conv() : small_dense(); }

  /// Unpacked fallback for problems too small to amortize panel copies. A
  /// dense C has row stride `plane`.
  void small_dense() const {
    for (std::size_t i = 0; i < m; ++i) {
      float* HSCONAS_RESTRICT crow = c + i * plane;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = alpha * (atrans ? a[p * lda + i] : a[i * lda + p]);
        // Worth a branch at these sizes: a zero element of A adds nothing
        // to row i, and skipping it saves a whole j sweep.
        if (av == 0.0f) continue;
        if (!btrans) {
          const float* HSCONAS_RESTRICT brow = b + p * ldb;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        } else {
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * b[j * ldb + p];
        }
      }
      if (ep != nullptr) epilogue_row(*ep, i, crow, n);
    }
  }

  /// The same fallback for a conv view, whose B has no rows to sweep: per
  /// NR-column panel, gathered once, each C row sums its k products in the
  /// same order, in registers, from zero.
  void small_conv() const {
    gemm_driver::for_each_conv_panel(*conv, [&](std::size_t j0,
                                                std::size_t nr,
                                                const float* bp) {
      for (std::size_t i = 0; i < m; ++i) {
        float acc[kNR] = {};
        for (std::size_t p = 0; p < k; ++p) {
          const float av = alpha * a[i * lda + p];
          if (av == 0.0f) continue;
          const float* brow = bp + p * kNR;
          for (std::size_t t = 0; t < kNR; ++t) acc[t] += av * brow[t];
        }
        if (ep != nullptr) epilogue_row(*ep, i, acc, kNR);
        copy_tile({i, j0, 0, 0, 1, nr}, acc, /*to_c=*/true);
      }
    });
  }
};

void gemm_dispatch(const F32Gemm& g, float beta) {
  if (g.conv == nullptr) scale_c(g.m, g.n, g.plane, beta, g.c);
  if (g.k == 0 || g.alpha == 0.0f) {
    // The product is identically zero, but the epilogue still applies:
    // C = act(shift) row-wise over the beta-scaled (here: zeroed) C.
    for (std::size_t i = 0; g.ep != nullptr && i < g.m; ++i) {
      epilogue_row(*g.ep, i, g.c + i * g.plane, g.n);
    }
    return;
  }
  gemm_driver::run(g, g.path_m, g.path_n);
}

/// A dense product whose C has row stride ldc and dispatches as m × n.
F32Gemm dense(std::size_t m, std::size_t n, std::size_t k, float alpha,
              const float* a, std::size_t lda, bool atrans, const float* b,
              std::size_t ldb, bool btrans, float* c, std::size_t ldc,
              const GemmEpilogue* ep) {
  return {{m, n, k, ldc, 0}, alpha, a, lda, atrans, b, ldb, btrans, c, ep,
          nullptr, m, n};
}

void gemm_conv(std::size_t m, const float* a, std::size_t lda,
               const ConvInput<float>& b, const ConvOutput& c,
               const GemmEpilogue* ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_conv");
  const std::size_t n = b.n(), k = b.k();
  count_gemm_entry(calls, m, n, k);
  // The first K block overwrites y (`first`), so it is never read.
  gemm_dispatch({{m, n, k, b.ohw(), c.sample_stride}, 1.0f, a, lda,
                 /*atrans=*/false, nullptr, 0, false, c.y, ep, &b, m, n},
                /*beta=*/1.0f);
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch(dense(m, n, k, alpha, a, k, false, b, n, false, c, n, nullptr),
                beta);
}

void gemm_at_b(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c,
               std::size_t lda) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_at_b");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch(dense(m, n, k, alpha, a, lda != 0 ? lda : m, true, b, n,
                      false, c, n, nullptr),
                beta);
}

void gemm_a_bt(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c,
               std::size_t ldc, std::size_t rows) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_a_bt");
  count_gemm_entry(calls, m, n, k);
  F32Gemm g = dense(m, n, k, alpha, a, k, false, b, k, true, c,
                    ldc != 0 ? ldc : n, nullptr);
  g.path_m = rows != 0 ? rows : m;
  g.path_n = g.plane;
  gemm_dispatch(g, beta);
}

void gemm_fused(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float* c,
                const GemmEpilogue& ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_fused");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch(dense(m, n, k, alpha, a, k, false, b, n, false, c, n, &ep),
                /*beta=*/0.0f);
}

void gemm(std::size_t m, const float* a, std::size_t lda,
          const ConvInput<float>& b, const ConvOutput& c) {
  gemm_conv(m, a, lda, b, c, nullptr);
}

void gemm_fused(std::size_t m, const float* a, std::size_t lda,
                const ConvInput<float>& b, const ConvOutput& c,
                const GemmEpilogue& ep) {
  gemm_conv(m, a, lda, b, c, &ep);
}

}  // namespace hsconas::tensor
