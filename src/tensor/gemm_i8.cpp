#include "tensor/gemm_i8.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/conv_pack.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/thread_pool.h"

#if defined(__AVX512VNNI__) && defined(__AVX512F__) && defined(__AVX512BW__)
#define HSCONAS_GEMM_I8_VNNI 1
#include <immintrin.h>
#endif

namespace hsconas::tensor {

bool gemm_i8_vnni_enabled() {
#ifdef HSCONAS_GEMM_I8_VNNI
  return true;
#else
  return false;
#endif
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define HSCONAS_RESTRICT __restrict__
#else
#define HSCONAS_RESTRICT
#endif

// Register tile, mirroring the fp32 kernel's shape: MR×NR int32
// accumulators live in registers across the whole k loop. The k axis is
// consumed four bytes at a time (one VNNI dot-product step), so packed
// panels interleave quads: a packed "k step" holds 4 consecutive k values
// for each of the NR columns (B) / MR rows (A).
constexpr std::size_t kMR = 6;
constexpr std::size_t kNR = 16;
constexpr std::size_t kQuad = 4;

// N blocking only: the int8 kernel keeps the whole (quad-padded) k extent
// in one pass — accumulators never leave registers, C is written exactly
// once, and the packed B block for an NC stripe is k×kNC bytes, a quarter
// of the fp32 footprint.
constexpr std::size_t kNC = 512;

// Parallel task granularity along M, MR-aligned like the fp32 kernel so
// the packed-panel set is independent of the thread schedule (with exact
// integer accumulation this is belt-and-braces: any schedule is
// bit-identical anyway).
constexpr std::size_t kMChunk = 2 * kMR;

constexpr std::size_t kPackThresholdFlops = 1u << 14;
constexpr std::size_t kParallelThresholdFlops = 1u << 21;

constexpr std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

void count_entry(obs::Counter& calls, std::size_t m, std::size_t n,
                 std::size_t k) {
  static obs::Counter& macs = obs::counter("hsconas.gemm_i8.macs");
  calls.add();
  macs.add(static_cast<std::uint64_t>(m) * n * k);
}

struct GemmI8Args {
  std::size_t m, n, k;
  const std::int8_t* a;   // m×k, lda == k
  const std::uint8_t* b;  // k×n, ldb == n
  std::int32_t* ci;       // raw int32 output (null when requantizing)
  float* cf;              // requantized float output (null for raw)
  const QuantEpilogue* ep;
  const ConvInput<std::uint8_t>* conv;  // set: B is this view (b unused)
  // C column j is pixel j % plane of sample j / plane, at sample ·
  // c_stride + row · plane + pixel. A dense C is one sample: plane == n.
  std::size_t plane, c_stride;
};

/// Pack the M chunk [i0, i0+mc) of A into MR-row, quad-interleaved panels:
/// panel ip holds kq steps of MR×4 bytes — rows column-adjacent, each
/// row's 4 consecutive k bytes contiguous — zero-padded past mc and past
/// k (zero weight bytes contribute nothing to any dot product).
void pack_a_block(const std::int8_t* a, std::size_t lda, std::size_t i0,
                  std::size_t mc, std::size_t k, std::size_t kq,
                  std::int8_t* HSCONAS_RESTRICT ap) {
  for (std::size_t ip = 0; ip < mc; ip += kMR) {
    const std::size_t mr = std::min(kMR, mc - ip);
    for (std::size_t q = 0; q < kq; ++q) {
      for (std::size_t i = 0; i < kMR; ++i) {
        const std::int8_t* src = a + (i0 + ip + i) * lda + q * kQuad;
        for (std::size_t t = 0; t < kQuad; ++t) {
          const std::size_t p = q * kQuad + t;
          ap[(q * kMR + i) * kQuad + t] =
              (i < mr && p < k) ? src[t] : std::int8_t{0};
        }
      }
    }
    ap += kq * kMR * kQuad;
  }
}

/// Pack one k×NR panel of B (columns [j0, j0+nr)) quad-interleaved:
/// step q holds, for each of the NR columns, that column's 4 consecutive
/// k bytes — one 64-byte VNNI vector per step. Zero-padded past nr and
/// past k. A conv view gathers its windows (padded taps read the zero
/// point) straight from the codes. Panels are disjoint, so an N block's
/// panels pack concurrently.
void pack_b_panel(const GemmI8Args& g, std::size_t j0, std::size_t nr,
                  std::size_t kq, std::uint8_t* HSCONAS_RESTRICT bp) {
  std::memset(bp, 0, kq * kNR * kQuad);
  const auto row = [&](std::size_t p) {
    return bp + (p / kQuad * kNR) * kQuad + p % kQuad;
  };
  if (g.conv != nullptr) {
    gather_conv_rows<kQuad>(*g.conv, 0, g.k, j0, nr, row);
    return;
  }
  for (std::size_t p = 0; p < g.k; ++p) {
    const std::uint8_t* src = g.b + p * g.n + j0;
    std::uint8_t* dst = row(p);
    for (std::size_t j = 0; j < nr; ++j) dst[j * kQuad] = src[j];
  }
}

/// acc (kMR×kNR int32) = Ap_panel · Bp_panel over the full quad-padded k.
/// One B vector load + kMR broadcast-dot-products per step on the VNNI
/// path: _mm512_dpbusd_epi32 multiplies 4 unsigned B bytes by 4 signed A
/// bytes per int32 lane and accumulates — 64 MACs per instruction. The
/// scalar fallback walks the identical packed layout; integer arithmetic
/// makes the two paths bit-identical, not just close.
#ifdef HSCONAS_GEMM_I8_VNNI
void micro_kernel(std::size_t kq, const std::int8_t* HSCONAS_RESTRICT ap,
                  const std::uint8_t* HSCONAS_RESTRICT bp,
                  std::int32_t* HSCONAS_RESTRICT acc_out) {
  __m512i acc[kMR];
  for (std::size_t i = 0; i < kMR; ++i) acc[i] = _mm512_setzero_si512();
  for (std::size_t q = 0; q < kq; ++q) {
    const __m512i bv =
        // hsconas-lint-allow(serial-pointer-cast) — vector load pun.
        _mm512_loadu_si512(reinterpret_cast<const void*>(bp + q * kNR * kQuad));
    const std::int8_t* HSCONAS_RESTRICT arow = ap + q * kMR * kQuad;
    for (std::size_t i = 0; i < kMR; ++i) {
      std::int32_t aw;
      // Unaligned 4-byte load of a weight quad for the broadcast; memcpy
      // is the UB-free pun and compiles to a single mov.
      // hsconas-lint-allow(serial-raw-memcpy)
      std::memcpy(&aw, arow + i * kQuad, sizeof(aw));
      acc[i] = _mm512_dpbusd_epi32(acc[i], bv, _mm512_set1_epi32(aw));
    }
  }
  for (std::size_t i = 0; i < kMR; ++i) {
    // hsconas-lint-allow(serial-pointer-cast) — vector store pun.
    _mm512_storeu_si512(reinterpret_cast<void*>(acc_out + i * kNR), acc[i]);
  }
}
#else
void micro_kernel(std::size_t kq, const std::int8_t* HSCONAS_RESTRICT ap,
                  const std::uint8_t* HSCONAS_RESTRICT bp,
                  std::int32_t* HSCONAS_RESTRICT acc_out) {
  std::int32_t acc[kMR * kNR] = {};
  for (std::size_t q = 0; q < kq; ++q) {
    const std::int8_t* HSCONAS_RESTRICT arow = ap + q * kMR * kQuad;
    const std::uint8_t* HSCONAS_RESTRICT brow = bp + q * kNR * kQuad;
    for (std::size_t i = 0; i < kMR; ++i) {
      for (std::size_t j = 0; j < kNR; ++j) {
        std::int32_t dot = 0;
        for (std::size_t t = 0; t < kQuad; ++t) {
          dot += static_cast<std::int32_t>(arow[i * kQuad + t]) *
                 static_cast<std::int32_t>(brow[j * kQuad + t]);
        }
        acc[i * kNR + j] += dot;
      }
    }
  }
  // hsconas-lint-allow(serial-raw-memcpy) — accumulator tile copy-out.
  std::memcpy(acc_out, acc, sizeof(acc));
}
#endif

/// Write the finished mr×nr accumulator tile at C rows [i0+ip, ...) and
/// columns [jc+jp, ...): raw int32 store, or the requantizing writeback.
/// Each element is written exactly once.
void write_tile(const GemmI8Args& g, std::size_t row0, std::size_t col0,
                std::size_t mr, std::size_t nr,
                const std::int32_t* HSCONAS_RESTRICT acc) {
  for_each_sample_piece(col0, nr, g.plane, [&](std::size_t s, std::size_t pix,
                                               std::size_t t, std::size_t len) {
    const std::size_t at = s * g.c_stride + row0 * g.plane + pix;
    if (g.ep != nullptr) {
      requant_rows(*g.ep, row0, mr, len, acc + t, kNR, g.cf + at, g.plane);
      return;
    }
    for (std::size_t i = 0; i < mr; ++i) {
      std::int32_t* HSCONAS_RESTRICT crow = g.ci + at + i * g.plane;
      for (std::size_t j = 0; j < len; ++j) crow[j] = acc[i * kNR + t + j];
    }
  });
}

/// Compute the kMChunk-row M chunk at row i0 against the shared packed B
/// block `bp` (kq steps per panel, panels at logical column jc): pack this
/// chunk's A panels from the calling thread's workspace, then run the
/// microkernel over every (MR, NR) tile and write each C tile once.
void run_m_chunk(const GemmI8Args& g, std::size_t i0, std::size_t jc,
                 std::size_t nc, std::size_t kq,
                 const std::uint8_t* HSCONAS_RESTRICT bp) {
  const std::size_t mc = std::min(kMChunk, g.m - i0);
  Workspace& ws = Workspace::tls();
  ByteScratch ap = ws.take_bytes(round_up(mc, kMR) * kq * kQuad);
  pack_a_block(g.a, g.k, i0, mc, g.k, kq, ap.i8());
  std::int32_t acc[kMR * kNR];
  for (std::size_t jp = 0; jp < nc; jp += kNR) {
    const std::size_t nr = std::min(kNR, nc - jp);
    const std::uint8_t* bpanel = bp + (jp / kNR) * kq * kNR * kQuad;
    for (std::size_t ip = 0; ip < mc; ip += kMR) {
      const std::size_t mr = std::min(kMR, mc - ip);
      micro_kernel(kq, ap.i8() + (ip / kMR) * kq * kMR * kQuad, bpanel, acc);
      write_tile(g, i0 + ip, jc + jp, mr, nr, acc);
    }
  }
}

/// Unpacked fallback for problems too small to amortize panel copies (and
/// for k == 0, where every accumulator is 0 and the epilogue still
/// applies). Accumulates up to kNR columns of a row at a time and writes
/// them through the same tile writeback as the blocked path. A conv view
/// first gathers those columns' k rows into a row-major panel.
void gemm_i8_small(const GemmI8Args& g) {
  ByteScratch panel;
  if (g.conv != nullptr) panel = Workspace::tls().take_bytes(g.k * kNR);
  std::int32_t acc[kNR];
  for (std::size_t j0 = 0; j0 < g.n; j0 += kNR) {
    const std::size_t nr = std::min(kNR, g.n - j0);
    const std::uint8_t* b = panel.u8();
    std::size_t ldb = kNR;
    if (g.conv == nullptr) {
      b = g.b + j0;
      ldb = g.n;
    } else {
      gather_conv_rows<1>(*g.conv, 0, g.k, j0, nr, [&](std::size_t p) {
        return panel.u8() + p * kNR;
      });
    }
    for (std::size_t i = 0; i < g.m; ++i) {
      const std::int8_t* HSCONAS_RESTRICT arow = g.a + i * g.k;
      for (std::size_t j = 0; j < nr; ++j) {
        std::int32_t sum = 0;
        for (std::size_t p = 0; p < g.k; ++p) {
          sum += static_cast<std::int32_t>(arow[p]) *
                 static_cast<std::int32_t>(b[p * ldb + j]);
        }
        acc[j] = sum;
      }
      write_tile(g, i, j0, 1, nr, acc);
    }
  }
}

/// Macro-kernel: per NC stripe, pack B panels once into a shared read-only
/// buffer (concurrently — panels are disjoint — with the parallel_for
/// join publishing them), then distribute MR-aligned M chunks over the
/// pool. C rows are partitioned by chunk, so no two threads write the
/// same element; integer accumulation makes every schedule bit-identical.
void gemm_i8_blocked(const GemmI8Args& g, bool parallel) {
  auto& pool = util::ThreadPool::global();
  const std::size_t kq = round_up(g.k, kQuad) / kQuad;
  const std::size_t mchunks = (g.m + kMChunk - 1) / kMChunk;
  Workspace& ws = Workspace::tls();
  for (std::size_t jc = 0; jc < g.n; jc += kNC) {
    const std::size_t nc = std::min(kNC, g.n - jc);
    const std::size_t npanels = (nc + kNR - 1) / kNR;
    ByteScratch bp = ws.take_bytes(npanels * kq * kNR * kQuad);
    auto pack_panel = [&](std::size_t t) {
      pack_b_panel(g, jc + t * kNR, std::min(kNR, nc - t * kNR), kq,
                   bp.u8() + t * kq * kNR * kQuad);
    };
    auto run_chunk = [&](std::size_t t) {
      run_m_chunk(g, t * kMChunk, jc, nc, kq, bp.u8());
    };
    if (!parallel) {
      for (std::size_t t = 0; t < npanels; ++t) pack_panel(t);
      for (std::size_t t = 0; t < mchunks; ++t) run_chunk(t);
      continue;
    }
    pool.parallel_for(npanels, pack_panel);
    pool.parallel_for(mchunks, run_chunk);
  }
}

void gemm_i8_dispatch(const GemmI8Args& g) {
  if (g.k > kGemmI8MaxK) {
    throw InvalidArgument("gemm_i8: k exceeds the int32 accumulator bound");
  }
  if (g.m == 0 || g.n == 0) return;
  const std::size_t flops = 2 * g.m * g.n * g.k;
  if (flops < kPackThresholdFlops || g.m < kMR / 2) {  // includes k == 0
    gemm_i8_small(g);
    return;
  }
  auto& pool = util::ThreadPool::global();
  const bool parallel = pool.size() > 1 && flops >= kParallelThresholdFlops;
  gemm_i8_blocked(g, parallel);
}

}  // namespace

void gemm_i8(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
             const std::uint8_t* b, std::int32_t* c) {
  static obs::Counter& calls = obs::counter("hsconas.gemm_i8.calls");
  count_entry(calls, m, n, k);
  gemm_i8_dispatch({m, n, k, a, b, c, nullptr, nullptr, nullptr, n, 0});
}

void gemm_i8_requant(std::size_t m, std::size_t n, std::size_t k,
                     const std::int8_t* a, const std::uint8_t* b, float* c,
                     const QuantEpilogue& ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm_i8.calls_requant");
  count_entry(calls, m, n, k);
  gemm_i8_dispatch({m, n, k, a, b, nullptr, c, &ep, nullptr, n, 0});
}

void gemm_i8_requant(std::size_t m, const std::int8_t* a,
                     const ConvInput<std::uint8_t>& b, const ConvOutput& c,
                     const QuantEpilogue& ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm_i8.calls_conv");
  const GemmI8Args g{m, b.n(), b.k(), a, nullptr, nullptr, c.y, &ep, &b,
                     b.ohw(), c.sample_stride};
  count_entry(calls, g.m, g.n, g.k);
  gemm_i8_dispatch(g);
}

}  // namespace hsconas::tensor
