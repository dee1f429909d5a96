#include "tensor/gemm_i8.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "tensor/gemm_driver.h"
#include "util/error.h"

#if defined(__AVX512VNNI__) && defined(__AVX512F__) && defined(__AVX512BW__)
#define HSCONAS_GEMM_I8_VNNI 1
#include <immintrin.h>
#endif

namespace hsconas::tensor {

namespace {

using gemm_driver::kMR;
using gemm_driver::kNR;
using gemm_driver::Tile;

// The k axis is consumed four bytes at a time (one VNNI dot-product step),
// so packed panels interleave quads: a packed "k step" holds 4 consecutive
// k values for each of the NR columns (B) / MR rows (A).
constexpr std::size_t kQuad = 4;

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

/// The int8 kernel of the blocked driver (tensor/gemm_driver.h). The
/// whole quad-padded k extent is one K block (k <= kGemmI8MaxK is checked
/// at entry), so accumulators never leave registers, C is written exactly
/// once, and the packed B block of an NC stripe is k×kNC bytes, a quarter
/// of the fp32 footprint. Integer accumulation makes every schedule
/// bit-identical.
struct I8Gemm : gemm_driver::GemmDims {
  using APack = std::int8_t;
  using BPack = std::uint8_t;
  static constexpr std::size_t kKC = kGemmI8MaxK;
  static constexpr std::size_t kKStep = kQuad;

  const std::int8_t* a;                 // m×k, row stride lda
  std::size_t lda;
  const ConvInput<std::uint8_t>* conv;  // B: the conv view of the codes
  float* c;                             // the NCHW output
  const QuantEpilogue* ep;

  /// Pack the M chunk [i0, i0+mc) of A into MR-row, quad-interleaved
  /// panels: panel ip holds kq steps of MR×4 bytes — rows column-adjacent,
  /// each row's 4 consecutive k bytes contiguous — zero-padded past mc and
  /// past k (zero weight bytes contribute nothing to any dot product).
  void pack_a(std::size_t i0, std::size_t, std::size_t mc, std::size_t,
              std::int8_t* HSCONAS_RESTRICT ap) const {
    const std::size_t kq = gemm_driver::round_up(k, kQuad) / kQuad;
    for (std::size_t ip = 0; ip < mc; ip += kMR, ap += kq * kMR * kQuad) {
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
    }
  }

  /// Pack one k×NR panel of B (columns [j0, j0+nr)) quad-interleaved:
  /// step q holds, for each of the NR columns, that column's 4 consecutive
  /// k bytes — one 64-byte VNNI vector per step — gathered straight from
  /// the codes (padded taps read the zero point). Zero-padded past nr and
  /// past k.
  void pack_b(std::size_t, std::size_t, std::size_t j0, std::size_t nr,
              std::uint8_t* HSCONAS_RESTRICT bp) const {
    std::memset(bp, 0, gemm_driver::round_up(k, kQuad) * kNR);
    gather_conv_rows<kQuad>(*conv, 0, k, j0, nr, [&](std::size_t p) {
      return bp + (p / kQuad * kNR) * kQuad + p % kQuad;
    });
  }

  void tile(std::size_t, const std::int8_t* ap, const std::uint8_t* bp,
            const Tile& t, bool, bool) const {
    std::int32_t acc[kMR * kNR];
    micro_kernel(gemm_driver::round_up(k, kQuad) / kQuad, ap, bp, acc);
    write_tile(t.row0, t.j0, t.mr, t.nr, acc);
  }

  /// Requantize a finished mr×nr accumulator tile (row stride kNR) into C
  /// rows [row0, ...) and columns [col0, ...), each element exactly once.
  void write_tile(std::size_t row0, std::size_t col0, std::size_t mr,
                  std::size_t nr,
                  const std::int32_t* HSCONAS_RESTRICT acc) const {
    for_each_sample_piece(col0, nr, plane, [&](std::size_t s,
                                               std::size_t pix,
                                               std::size_t at,
                                               std::size_t len) {
      requant_rows(*ep, row0, mr, len, acc + at, kNR,
                   c + s * c_stride + row0 * plane + pix, plane);
    });
  }

  /// Unpacked fallback for problems too small to amortize panel copies (and
  /// for k == 0, where every accumulator is 0 and the epilogue still
  /// applies): sums the kNR columns of each gathered B panel row by row
  /// and writes them through the tile writeback.
  void small() const {
    gemm_driver::for_each_conv_panel(
        *conv, [&](std::size_t j0, std::size_t nr, const std::uint8_t* bp) {
          std::int32_t acc[kNR];
          for (std::size_t i = 0; i < m; ++i) {
            const std::int8_t* HSCONAS_RESTRICT arow = a + i * lda;
            for (std::size_t j = 0; j < nr; ++j) {
              std::int32_t sum = 0;
              for (std::size_t p = 0; p < k; ++p) {
                sum += static_cast<std::int32_t>(arow[p]) *
                       static_cast<std::int32_t>(bp[p * kNR + j]);
              }
              acc[j] = sum;
            }
            write_tile(i, j0, 1, nr, acc);
          }
        });
  }
};

}  // namespace

void gemm_i8_requant(std::size_t m, const std::int8_t* a, std::size_t lda,
                     const ConvInput<std::uint8_t>& b, const ConvOutput& c,
                     const QuantEpilogue& ep) {
  static obs::Counter& calls = obs::counter("hsconas.gemm_i8.calls_conv");
  static obs::Counter& macs = obs::counter("hsconas.gemm_i8.macs");
  const I8Gemm g{{m, b.n(), b.k(), b.ohw(), c.sample_stride}, a, lda, &b,
                 c.y, &ep};
  calls.add();
  macs.add(static_cast<std::uint64_t>(g.m) * g.n * g.k);
  if (g.k > kGemmI8MaxK) {
    throw InvalidArgument("gemm_i8: k exceeds the int32 accumulator bound");
  }
  gemm_driver::run(g, g.m, g.n);
}

}  // namespace hsconas::tensor
