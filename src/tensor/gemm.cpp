#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "obs/timing.h"
#include "tensor/conv_pack.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace hsconas::tensor {

namespace {

/// Kernel-entry accounting: one relaxed counter bump per public gemm call
/// (never per tile/chunk), so the observability cost is invisible next to
/// the O(mnk) work.
void count_gemm_entry(obs::Counter& calls, std::size_t m, std::size_t n,
                      std::size_t k) {
  static obs::Counter& flops = obs::counter("hsconas.gemm.flops");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
}

/// Per-thread count of packed A panels (`hsconas.gemm.a_panels.t<id>`).
/// One gauge-free relaxed add per macro-task, keyed by a stable per-thread
/// ordinal, so packing imbalance across pool workers is observable.
obs::Counter& a_panel_counter() {
  thread_local obs::Counter& c = obs::counter(
      "hsconas.gemm.a_panels.t" + std::to_string(obs::thread_ordinal()));
  return c;
}

}  // namespace

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define HSCONAS_RESTRICT __restrict__
#else
#define HSCONAS_RESTRICT
#endif

// Register tile: MR×NR accumulators live in registers across the whole k
// loop (6×16 floats = 6 AVX-512 / 12 AVX2 vectors), so the kernel performs
// one A broadcast + one B vector load per MR×NR FMAs instead of the
// load/store-per-FMA pattern of a naive triple loop.
constexpr std::size_t kMR = 6;
constexpr std::size_t kNR = 16;

// Cache blocking: the shared packed B block (kKC×kNC) stays L2/L3-resident
// for a whole K step while every M chunk streams over it; each worker's
// private packed A chunk (kMChunk×kKC ≈ 11 KB) stays in L1.
constexpr std::size_t kKC = 240;
constexpr std::size_t kNC = 512;  // 32 NR-panels

// Parallel task granularity along M: two register tiles tall. Chunk
// boundaries are MR-aligned, so the set of packed A panels (and therefore
// every accumulated value) is independent of how chunks land on threads.
constexpr std::size_t kMChunk = 2 * kMR;

// Problems below this many FLOPs skip packing entirely — the scratch lease
// and panel copies would dominate.
constexpr std::size_t kPackThresholdFlops = 1u << 14;
// Problems below this many FLOPs are not worth a thread-pool dispatch.
constexpr std::size_t kParallelThresholdFlops = 1u << 21;

constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

void scale_c(std::size_t m, std::size_t n, float beta, float* c) {
  if (beta == 1.0f) return;
  const std::size_t total = m * n;
  if (beta == 0.0f) {
    std::memset(c, 0, total * sizeof(float));
  } else {
    for (std::size_t i = 0; i < total; ++i) c[i] *= beta;
  }
}

/// Pack the (mc×kc) block of A starting at logical (ic, pc) into MR-row
/// panels: panel ip holds kc runs of MR column-adjacent values, zero-padded
/// past mc, with alpha folded in. `trans` means A is stored k×m and the
/// logical matrix is its transpose (the gemm_at_b layout).
void pack_a_block(const float* a, std::size_t lda, bool trans, std::size_t ic,
                  std::size_t pc, std::size_t mc, std::size_t kc, float alpha,
                  float* HSCONAS_RESTRICT ap) {
  for (std::size_t ip = 0; ip < mc; ip += kMR) {
    const std::size_t mr = std::min(kMR, mc - ip);
    for (std::size_t p = 0; p < kc; ++p) {
      if (trans) {
        const float* src = a + (pc + p) * lda + ic + ip;
        for (std::size_t i = 0; i < mr; ++i) ap[i] = alpha * src[i];
      } else {
        const float* src = a + (ic + ip) * lda + pc + p;
        for (std::size_t i = 0; i < mr; ++i) ap[i] = alpha * src[i * lda];
      }
      for (std::size_t i = mr; i < kMR; ++i) ap[i] = 0.0f;
      ap += kMR;
    }
  }
}

/// Pack one kc×NR panel of B (columns [j0, j0+nr)) starting at row pc
/// into `bp`: kc runs of NR row-adjacent values, zero-padded past nr.
/// `trans` means B is stored n×k and the logical matrix is its transpose
/// (the gemm_a_bt layout). Panels are independent, so a K block's panels
/// can be packed concurrently into disjoint slices of the shared buffer.
void pack_b_panel(const float* b, std::size_t ldb, bool trans, std::size_t pc,
                  std::size_t j0, std::size_t kc, std::size_t nr,
                  float* HSCONAS_RESTRICT bp) {
  if (!trans) {
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b + (pc + p) * ldb + j0;
      for (std::size_t j = 0; j < nr; ++j) bp[j] = src[j];
      for (std::size_t j = nr; j < kNR; ++j) bp[j] = 0.0f;
      bp += kNR;
    }
  } else {
    // Transpose during packing: column j of the logical B is row
    // (j0+j) of the stored matrix.
    std::memset(bp, 0, kc * kNR * sizeof(float));
    for (std::size_t j = 0; j < nr; ++j) {
      const float* src = b + (j0 + j) * ldb + pc;
      for (std::size_t p = 0; p < kc; ++p) bp[p * kNR + j] = src[p];
    }
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
#if defined(__GNUC__) || defined(__clang__)
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
  if (ep != nullptr) {
    // Fused writeback: finish the accumulation, then apply the per-row
    // affine + activation while the tile is still register/L1 hot — the
    // epilogue costs zero extra passes over C. Scalar lane math keeps it
    // the same formula as epilogue_apply at every tile shape.
    for (std::size_t i = 0; i < mr; ++i) {
      const float s = ep->scale != nullptr ? ep->scale[row0 + i] : 1.0f;
      const float t = ep->shift != nullptr ? ep->shift[row0 + i] : 0.0f;
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] = epilogue_apply(
            ep->act,
            epilogue_affine(s, (first ? 0.0f : crow[j]) + acc[i][j], t));
      }
    }
    return;
  }
  if (mr == kMR && nr == kNR) {
    for (std::size_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      VecNR cv = {};
      // hsconas-lint-allow(serial-raw-memcpy) — vector load/store puns.
      if (!first) std::memcpy(&cv, crow, sizeof(cv));
      cv += acc[i];
      // hsconas-lint-allow(serial-raw-memcpy)
      std::memcpy(crow, &cv, sizeof(cv));
    }
  } else {
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] = (first ? 0.0f : crow[j]) + acc[i][j];
      }
    }
  }
}
#else
void micro_kernel(std::size_t kc, const float* HSCONAS_RESTRICT ap,
                  const float* HSCONAS_RESTRICT bp, float* HSCONAS_RESTRICT c,
                  std::size_t ldc, std::size_t mr, std::size_t nr,
                  const GemmEpilogue* ep, std::size_t row0, bool first) {
  float acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* HSCONAS_RESTRICT arow = ap + p * kMR;
    const float* HSCONAS_RESTRICT brow = bp + p * kNR;
    for (std::size_t i = 0; i < kMR; ++i) {
      for (std::size_t j = 0; j < kNR; ++j) {
        acc[i][j] += arow[i] * brow[j];
      }
    }
  }
  if (ep != nullptr) {
    for (std::size_t i = 0; i < mr; ++i) {
      const float s = ep->scale != nullptr ? ep->scale[row0 + i] : 1.0f;
      const float t = ep->shift != nullptr ? ep->shift[row0 + i] : 0.0f;
      float* crow = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] = epilogue_apply(
            ep->act,
            epilogue_affine(s, (first ? 0.0f : crow[j]) + acc[i][j], t));
      }
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      crow[j] = (first ? 0.0f : crow[j]) + acc[i][j];
    }
  }
}
#endif

struct GemmArgs {
  std::size_t m, n, k;
  float alpha;
  const float* a;
  std::size_t lda;
  bool atrans;
  const float* b;
  std::size_t ldb;
  bool btrans;
  float* c;
  const GemmEpilogue* ep;          // null: plain accumulate
  const ConvInput<float>* conv;    // set: B is this view (b, ldb unused)
  // C column j is pixel j % plane of sample j / plane, at c + sample ·
  // c_stride + row · plane + pixel. A dense C is one sample: plane == n.
  std::size_t plane, c_stride;
};

/// Pack the kc×NR panel of B at rows [pc, pc + kc), columns [j0, j0 + nr):
/// a conv view gathers its windows straight from the input.
void pack_b(const GemmArgs& g, std::size_t pc, std::size_t kc, std::size_t j0,
            std::size_t nr, float* HSCONAS_RESTRICT bp) {
  if (g.conv == nullptr) {
    pack_b_panel(g.b, g.ldb, g.btrans, pc, j0, kc, nr, bp);
    return;
  }
  if (nr < kNR) std::fill(bp, bp + kc * kNR, 0.0f);
  gather_conv_rows<1>(*g.conv, pc, kc, j0, nr,
                      [&](std::size_t p) { return bp + (p - pc) * kNR; });
}

/// Copy the mr×nr block of C at (row0, j0) into `tile` (row stride kNR),
/// or back into C when `to_c`, one sample's piece at a time.
void copy_tile(const GemmArgs& g, std::size_t row0, std::size_t j0,
               std::size_t mr, std::size_t nr, float* tile, bool to_c) {
  for_each_sample_piece(j0, nr, g.plane, [&](std::size_t s, std::size_t pix,
                                             std::size_t t, std::size_t len) {
    float* c = g.c + s * g.c_stride + row0 * g.plane + pix;
    for (std::size_t i = 0; i < mr; ++i) {
      float* crow = c + i * g.plane;
      float* trow = tile + i * kNR + t;
      for (std::size_t j = 0; j < len; ++j) {
        if (to_c) {
          crow[j] = trow[j];
        } else {
          trow[j] = crow[j];
        }
      }
    }
  });
}

/// Run the microkernel on the C tile at (row0, j0), column j0 being pixel
/// pix of sample s: in place when the tile lies in one sample (always, for
/// a dense C), else through a stack tile, loaded from C after the first K
/// block and copied back piece by piece — the same values either way.
void kernel_tile(const GemmArgs& g, std::size_t kc, const float* ap,
                 const float* bp, std::size_t row0, std::size_t j0,
                 std::size_t s, std::size_t pix, std::size_t mr,
                 std::size_t nr, const GemmEpilogue* ep, bool first) {
  if (pix + nr <= g.plane) {
    micro_kernel(kc, ap, bp, g.c + s * g.c_stride + row0 * g.plane + pix,
                 g.plane, mr, nr, ep, row0, first);
    return;
  }
  alignas(64) float tile[kMR * kNR];
  if (!first) copy_tile(g, row0, j0, mr, nr, tile, /*to_c=*/false);
  micro_kernel(kc, ap, bp, tile, kNR, mr, nr, ep, row0, first);
  copy_tile(g, row0, j0, mr, nr, tile, /*to_c=*/true);
}

/// Compute the kMChunk-row M chunk starting at row `i0` against the shared
/// packed B block `bp` (kc×nc panels at logical column jc): pack this
/// chunk's A panels into the calling thread's workspace, then run the
/// microkernel over every (MR, NR) tile. `last_k` selects the fused
/// epilogue writeback on the final K block. Each C element is written by
/// exactly one chunk per K step and the chunk grid is MR-aligned, so the
/// computed values are independent of which thread runs which chunk.
void run_m_chunk(const GemmArgs& g, std::size_t i0, std::size_t jc,
                 std::size_t nc, std::size_t pc, std::size_t kc,
                 const float* HSCONAS_RESTRICT bp, bool last_k) {
  const std::size_t mc = std::min(kMChunk, g.m - i0);
  Workspace& ws = Workspace::tls();
  Scratch ap = ws.take(round_up(mc, kMR) * kc);
  pack_a_block(g.a, g.lda, g.atrans, i0, pc, mc, kc, g.alpha, ap.data());
  a_panel_counter().add((mc + kMR - 1) / kMR);
  const GemmEpilogue* ep = last_k ? g.ep : nullptr;
  // The panel's first column is pixel pix of sample s, stepped per panel.
  std::size_t s = jc / g.plane, pix = jc % g.plane;
  for (std::size_t jp = 0; jp < nc; jp += kNR) {
    const std::size_t nr = std::min(kNR, nc - jp);
    const float* bpanel = bp + (jp / kNR) * kc * kNR;
    for (std::size_t ip = 0; ip < mc; ip += kMR) {
      const std::size_t mr = std::min(kMR, mc - ip);
      kernel_tile(g, kc, ap.data() + (ip / kMR) * kc * kMR, bpanel, i0 + ip,
                  jc + jp, s, pix, mr, nr, ep, g.conv != nullptr && pc == 0);
    }
    for (pix += kNR; pix >= g.plane; pix -= g.plane) ++s;
  }
}

/// Unpacked fallback for problems too small to amortize panel copies.
void gemm_small(const GemmArgs& g) {
  for (std::size_t i = 0; i < g.m; ++i) {
    float* HSCONAS_RESTRICT crow = g.c + i * g.n;
    for (std::size_t p = 0; p < g.k; ++p) {
      const float av =
          g.alpha * (g.atrans ? g.a[p * g.lda + i] : g.a[i * g.lda + p]);
      // Worth a branch at these sizes: a zero element of A adds nothing
      // to row i, and skipping it saves a whole j sweep.
      if (av == 0.0f) continue;
      if (!g.btrans) {
        const float* HSCONAS_RESTRICT brow = g.b + p * g.ldb;
        for (std::size_t j = 0; j < g.n; ++j) crow[j] += av * brow[j];
      } else {
        for (std::size_t j = 0; j < g.n; ++j) crow[j] += av * g.b[j * g.ldb + p];
      }
    }
    if (g.ep != nullptr) {
      const float s = g.ep->scale != nullptr ? g.ep->scale[i] : 1.0f;
      const float t = g.ep->shift != nullptr ? g.ep->shift[i] : 0.0f;
      for (std::size_t j = 0; j < g.n; ++j) {
        crow[j] = epilogue_apply(g.ep->act, epilogue_affine(s, crow[j], t));
      }
    }
  }
}

/// The same fallback for a conv view, whose B has no rows to sweep: per
/// NR-column panel, gathered once, each C row sums its k products in the
/// same order, in registers, from zero.
void gemm_small_conv(const GemmArgs& g) {
  Scratch bp = Workspace::tls().take(g.k * kNR);
  for (std::size_t j0 = 0; j0 < g.n; j0 += kNR) {
    const std::size_t nr = std::min(kNR, g.n - j0);
    pack_b(g, 0, g.k, j0, nr, bp.data());
    for (std::size_t i = 0; i < g.m; ++i) {
      float acc[kNR] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        const float av = g.alpha * g.a[i * g.lda + p];
        if (av == 0.0f) continue;
        const float* brow = bp.data() + p * kNR;
        for (std::size_t t = 0; t < kNR; ++t) acc[t] += av * brow[t];
      }
      if (g.ep != nullptr) {
        const float s = g.ep->scale != nullptr ? g.ep->scale[i] : 1.0f;
        const float t = g.ep->shift != nullptr ? g.ep->shift[i] : 0.0f;
        for (float& v : acc) {
          v = epilogue_apply(g.ep->act, epilogue_affine(s, v, t));
        }
      }
      copy_tile(g, i, j0, 1, nr, acc, /*to_c=*/true);
    }
  }
}

/// Macro-kernel: for each (NC, KC) block, pack B once into a shared
/// read-only buffer (panels packed concurrently — they are disjoint — and
/// the parallel_for join publishes them to the compute tasks), then
/// distribute MR-aligned M chunks over the pool. Workers pack their own A
/// panels from their thread-local Workspace; C rows are partitioned by
/// chunk, so no two threads ever write the same C element and no atomics
/// touch C. The K loop stays serial — fixed accumulation order is the
/// bit-determinism guarantee (docs/PERFORMANCE.md).
void gemm_blocked(const GemmArgs& g, bool parallel) {
  auto& pool = util::ThreadPool::global();
  const std::size_t mchunks = (g.m + kMChunk - 1) / kMChunk;
  std::uint64_t busy_ns = 0;
  std::uint64_t wall_ns = 0;
  Workspace& ws = Workspace::tls();
  for (std::size_t jc = 0; jc < g.n; jc += kNC) {
    const std::size_t nc = std::min(kNC, g.n - jc);
    const std::size_t npanels = (nc + kNR - 1) / kNR;
    Scratch bp = ws.take(npanels * kKC * kNR);
    for (std::size_t pc = 0; pc < g.k; pc += kKC) {
      const std::size_t kc = std::min(kKC, g.k - pc);
      const bool last_k = pc + kc == g.k;
      auto pack_panel = [&](std::size_t t) {
        pack_b(g, pc, kc, jc + t * kNR, std::min(kNR, nc - t * kNR),
               bp.data() + t * kc * kNR);
      };
      auto run_chunk = [&](std::size_t t) {
        run_m_chunk(g, t * kMChunk, jc, nc, pc, kc, bp.data(), last_k);
      };
      if (!parallel) {
        for (std::size_t t = 0; t < npanels; ++t) pack_panel(t);
        for (std::size_t t = 0; t < mchunks; ++t) run_chunk(t);
        continue;
      }
      pool.parallel_for(npanels, pack_panel);
      // Parallel-efficiency accounting: per-chunk busy time summed with a
      // relaxed atomic vs the section's wall time. Timing never feeds back
      // into the computation, so determinism is untouched.
      std::atomic<std::uint64_t> busy{0};
      const std::uint64_t w0 = obs::monotonic_ns();
      pool.parallel_for(mchunks, [&](std::size_t t) {
        const std::uint64_t t0 = obs::monotonic_ns();
        run_chunk(t);
        busy.fetch_add(obs::monotonic_ns() - t0, std::memory_order_relaxed);
      });
      wall_ns += obs::monotonic_ns() - w0;
      busy_ns += busy.load(std::memory_order_relaxed);
    }
  }
  if (parallel && wall_ns > 0) {
    // busy/(wall·threads): 1.0 = every thread computing the whole time.
    static obs::Gauge& eff = obs::gauge("hsconas.gemm.parallel_efficiency");
    eff.set(static_cast<double>(busy_ns) /
            (static_cast<double>(wall_ns) *
             static_cast<double>(std::max<std::size_t>(1, pool.size()))));
  }
}

void gemm_dispatch(const GemmArgs& g, float beta) {
  scale_c(g.m, g.n, beta, g.c);
  if (g.m == 0 || g.n == 0) return;
  if (g.k == 0 || g.alpha == 0.0f) {
    if (g.ep != nullptr) {
      // The product is identically zero, but the epilogue still applies:
      // C = act(shift) row-wise over the beta-scaled (here: zeroed) C.
      for (std::size_t i = 0; i < g.m; ++i) {
        const float s = g.ep->scale != nullptr ? g.ep->scale[i] : 1.0f;
        const float t = g.ep->shift != nullptr ? g.ep->shift[i] : 0.0f;
        float* crow = g.c + i * g.n;
        for (std::size_t j = 0; j < g.n; ++j) {
          crow[j] = epilogue_apply(g.ep->act, epilogue_affine(s, crow[j], t));
        }
      }
    }
    return;
  }

  // Degenerate row counts waste most of the MR-tall register tile (a
  // depthwise conv's per-group GEMM has m == 1), so they also take the
  // unpacked path, whose j-loop still vectorizes.
  const std::size_t flops = 2 * g.m * g.n * g.k;
  if (flops < kPackThresholdFlops || g.m < kMR / 2) {
    g.conv != nullptr ? gemm_small_conv(g) : gemm_small(g);
    return;
  }
  auto& pool = util::ThreadPool::global();
  const bool parallel = pool.size() > 1 && flops >= kParallelThresholdFlops;
  gemm_blocked(g, parallel);
}

void gemm_conv(std::size_t m, const float* a, const ConvInput<float>& b,
               const ConvOutput& c, const GemmEpilogue* ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_conv");
  const std::size_t n = b.n(), k = b.k();
  count_gemm_entry(calls, m, n, k);
  // beta 1 leaves y to the first K block, which overwrites it (`first`).
  gemm_dispatch({m, n, k, 1.0f, a, /*lda=*/k, /*atrans=*/false, nullptr, 0,
                 false, c.y, ep, &b, b.ohw(), c.sample_stride},
                /*beta=*/1.0f);
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch({m, n, k, alpha, a, /*lda=*/k, /*atrans=*/false, b,
                 /*ldb=*/n, /*btrans=*/false, c, nullptr, nullptr, n, 0},
                beta);
}

void gemm_at_b(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_at_b");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch({m, n, k, alpha, a, /*lda=*/m, /*atrans=*/true, b,
                 /*ldb=*/n, /*btrans=*/false, c, nullptr, nullptr, n, 0},
                beta);
}

void gemm_a_bt(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_a_bt");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch({m, n, k, alpha, a, /*lda=*/k, /*atrans=*/false, b,
                 /*ldb=*/k, /*btrans=*/true, c, nullptr, nullptr, n, 0},
                beta);
}

void gemm_fused(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float* c,
                const GemmEpilogue& ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm.calls_fused");
  count_gemm_entry(calls, m, n, k);
  gemm_dispatch({m, n, k, alpha, a, /*lda=*/k, /*atrans=*/false, b,
                 /*ldb=*/n, /*btrans=*/false, c, &ep, nullptr, n, 0},
                /*beta=*/0.0f);
}

void gemm(std::size_t m, const float* a, const ConvInput<float>& b,
          const ConvOutput& c) {
  gemm_conv(m, a, b, c, nullptr);
}

void gemm_fused(std::size_t m, const float* a, const ConvInput<float>& b,
                const ConvOutput& c, const GemmEpilogue& ep) {
  gemm_conv(m, a, b, c, &ep);
}

}  // namespace hsconas::tensor
