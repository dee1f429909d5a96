#pragma once

// The blocked GEMM driver: private to gemm.cpp (fp32) and gemm_i8.cpp
// (int8), which each instantiate it under their own compile flags with
// their own kernel type. The driver owns the tiling, the N-stripe × K-block
// loop with its concurrent B packing and M-chunk fan-out, the tile walk and
// the small-vs-blocked dispatch; a kernel type owns what differs per
// dtype, its packers, microkernel and tile writeback:
//
//   struct Kernel : GemmDims {
//     using APack = ...;  using BPack = ...;  // packed panel element types
//     static constexpr std::size_t kKC;       // K block
//     static constexpr std::size_t kKStep;    // packed k rounds up to this
//     void pack_a(i0, pc, mc, kc, APack* ap) const;  // MR-row A panels
//     void pack_b(pc, kc, j0, nr, BPack* bp) const;  // one kc×NR B panel
//     void tile(kc, ap, bp, const Tile&, first_k, last_k) const;
//     void small() const;  // the unpacked path
//   };
//
// A packed panel holds round_up(kc, kKStep) k steps of MR (A) or NR (B)
// elements.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/timing.h"
#include "tensor/conv_pack.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

// The library builds with GCC and Clang only (util/string_util.h already
// uses __attribute__ unconditionally).
#define HSCONAS_RESTRICT __restrict__

namespace hsconas::tensor::gemm_driver {

// Register tile: MR×NR accumulators stay in registers across a K block.
constexpr std::size_t kMR = 6;
constexpr std::size_t kNR = 16;

// N blocking: the shared packed B block of one K block (kc×kNC) stays
// L2/L3-resident while every M chunk streams over it.
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

/// The shape of one GEMM call: C is m×n, summed over k. C column j is
/// pixel j % plane of sample j / plane, at sample · c_stride + row · plane
/// + pixel. A dense C is one sample: plane == n.
struct GemmDims {
  std::size_t m, n, k;
  std::size_t plane, c_stride;
};

/// Where a register tile lands: C rows [row0, row0 + mr), columns
/// [j0, j0 + nr), column j0 being pixel pix of sample s.
struct Tile {
  std::size_t row0, j0, s, pix, mr, nr;
};

/// The small paths' reading of a conv view: calls fn(j0, nr, panel) for
/// each NR-column panel of B, its k rows gathered row-major (row p at
/// panel + p · kNR) and zero past nr.
template <class T, class Fn>
void for_each_conv_panel(const ConvInput<T>& b, Fn&& fn) {
  const std::size_t n = b.n(), k = b.k();
  Scratch<T> panel = Workspace::tls().take<T>(k * kNR);
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t nr = std::min(kNR, n - j0);
    if (nr < kNR) std::fill(panel.data(), panel.data() + k * kNR, T{});
    gather_conv_rows<1>(b, 0, k, j0, nr, [&](std::size_t p) {
      return panel.data() + p * kNR;
    });
    fn(j0, nr, static_cast<const T*>(panel.data()));
  }
}

/// Compute the kMChunk-row M chunk at row i0 against the shared packed B
/// block `bp` (panels at logical column jc, K block [pc, pc + kc)): pack
/// this chunk's A panels into the calling thread's workspace, then run the
/// kernel over every (MR, NR) tile. Each C element is written by exactly
/// one chunk per K step and the chunk grid is MR-aligned, so the computed
/// values are independent of which thread runs which chunk.
template <class Kernel>
void run_m_chunk(const Kernel& g, std::size_t i0, std::size_t jc,
                 std::size_t nc, std::size_t pc, std::size_t kc,
                 const typename Kernel::BPack* bp) {
  const std::size_t mc = std::min(kMChunk, g.m - i0);
  const std::size_t depth = round_up(kc, Kernel::kKStep);
  auto ap = Workspace::tls().take<typename Kernel::APack>(
      round_up(mc, kMR) * depth);
  g.pack_a(i0, pc, mc, kc, ap.data());
  const bool first_k = pc == 0, last_k = pc + kc == g.k;
  // The panel's first column is pixel pix of sample s, stepped per panel.
  std::size_t s = jc / g.plane, pix = jc % g.plane;
  for (std::size_t jp = 0; jp < nc; jp += kNR) {
    const std::size_t nr = std::min(kNR, nc - jp);
    const auto* bpanel = bp + (jp / kNR) * depth * kNR;
    for (std::size_t ip = 0; ip < mc; ip += kMR) {
      const Tile t{i0 + ip, jc + jp, s, pix, std::min(kMR, mc - ip), nr};
      g.tile(kc, ap.data() + (ip / kMR) * depth * kMR, bpanel, t, first_k,
             last_k);
    }
    for (pix += kNR; pix >= g.plane; pix -= g.plane) ++s;
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
template <class Kernel>
void gemm_blocked(const Kernel& g, bool parallel) {
  auto& pool = util::ThreadPool::global();
  const std::size_t mchunks = (g.m + kMChunk - 1) / kMChunk;
  const std::size_t max_depth =
      round_up(std::min(Kernel::kKC, g.k), Kernel::kKStep);
  std::uint64_t busy_ns = 0;
  std::uint64_t wall_ns = 0;
  for (std::size_t jc = 0; jc < g.n; jc += kNC) {
    const std::size_t nc = std::min(kNC, g.n - jc);
    const std::size_t npanels = (nc + kNR - 1) / kNR;
    auto bp = Workspace::tls().take<typename Kernel::BPack>(
        npanels * max_depth * kNR);
    for (std::size_t pc = 0; pc < g.k; pc += Kernel::kKC) {
      const std::size_t kc = std::min(Kernel::kKC, g.k - pc);
      const std::size_t depth = round_up(kc, Kernel::kKStep);
      auto pack_panel = [&](std::size_t t) {
        g.pack_b(pc, kc, jc + t * kNR, std::min(kNR, nc - t * kNR),
                 bp.data() + t * depth * kNR);
      };
      auto run_chunk = [&](std::size_t t) {
        run_m_chunk(g, t * kMChunk, jc, nc, pc, kc, bp.data());
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

/// Run one GEMM: problems too small to amortize panel copies — or with
/// degenerate row counts, which waste most of the MR-tall register tile
/// (a depthwise conv's per-group GEMM has m == 1) — take the kernel's
/// unpacked path; the rest run blocked, across the pool when large enough.
/// The path choice is made for a path_m × path_n product over the same k:
/// the problem itself, or the whole matrix a window of C is cut from.
template <class Kernel>
void run(const Kernel& g, std::size_t path_m, std::size_t path_n) {
  if (g.m == 0 || g.n == 0) return;
  const std::size_t flops = 2 * g.m * g.n * g.k;
  if (2 * path_m * path_n * g.k < kPackThresholdFlops || path_m < kMR / 2) {
    g.small();
    return;
  }
  const bool parallel = util::ThreadPool::global().size() > 1 &&
                        flops >= kParallelThresholdFlops;
  gemm_blocked(g, parallel);
}

}  // namespace hsconas::tensor::gemm_driver
