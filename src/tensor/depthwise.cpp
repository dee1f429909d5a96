#include "tensor/depthwise.h"

#include <algorithm>

#include "tensor/workspace.h"
#include "util/error.h"

// This TU is compiled with -ffp-contract=off (src/tensor/CMakeLists.txt):
// the fp32 taps and writeback round every product and every sum on their
// own, like the in-order reference and epilogue_affine, without a
// per-value barrier that would keep the loops from vectorizing. It is
// also built, where the compiler has the flag, without loop-to-memcpy
// conversion: the row copies here move 4–16 elements, and a library call
// per row costs more than the copy.

namespace hsconas::tensor {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define HSCONAS_RESTRICT __restrict__
#else
#define HSCONAS_RESTRICT
#endif

/// Flat outputs per block: every kernel row runs over one block before the
/// next block starts, so the block's sums stay in L1 across the k passes.
constexpr long kBlock = 2048;

/// Taps per row pass; a longer kernel row runs as several passes.
constexpr long kMaxRow = 16;

/// Sum and product types per input element. A u8 code times an s8 weight
/// fits int16 exactly (|255 · −128| < 2^15), so the products run 16 lanes
/// to a 256-bit vector before widening into the int32 sums.
template <class T>
struct Arith;
template <>
struct Arith<std::uint8_t> {
  using Acc = std::int32_t;
  using Prod = std::int16_t;
};
template <>
struct Arith<float> {
  using Acc = float;
  using Prod = float;
};

/// One kernel row over a run of outputs: for o < len,
///   acc[o] = (((acc[o] + w[0]·src[0][o]) + w[1]·src[1][o]) + ...)
/// over the row's k taps in kx order, the sum held in a register. Each
/// output still adds its taps one at a time in (ky, kx) order. The first
/// row starts every sum from zero: for float, 0.0f + w·x, which turns a
/// −0 product into +0 exactly as an in-order sum does. kK > 0 fixes the
/// row length at compile time so the taps unroll and the loop over the
/// outputs vectorizes; 0 reads `k`.
template <long kK, bool kFirst, class T>
void row_pass(const T* const* src, const typename Arith<T>::Prod* w, long k,
              typename Arith<T>::Acc* HSCONAS_RESTRICT acc, long len) {
  using Acc = typename Arith<T>::Acc;
  using Prod = typename Arith<T>::Prod;
  if constexpr (kK > 0) k = kK;
  for (long o = 0; o < len; ++o) {
    Acc a = kFirst ? Acc{0} : acc[o];
    for (long kx = 0; kx < k; ++kx) {
      a += static_cast<Prod>(w[kx] * static_cast<Prod>(src[kx][o]));
    }
    acc[o] = a;
  }
}

template <bool kFirst, class T>
void row_pass(long k, const T* const* src, const typename Arith<T>::Prod* w,
              typename Arith<T>::Acc* acc, long len) {
  switch (k) {
    case 3:
      return row_pass<3, kFirst>(src, w, k, acc, len);
    case 5:
      return row_pass<5, kFirst>(src, w, k, acc, len);
    case 7:
      return row_pass<7, kFirst>(src, w, k, acc, len);
    default:
      return row_pass<0, kFirst>(src, w, k, acc, len);
  }
}

/// Even columns of an n-wide row to `even`, odd ones to `odd`: the stride-2
/// phase split, vectorized.
template <class T>
void split_pairs(const T* HSCONAS_RESTRICT src, long n,
                 T* HSCONAS_RESTRICT even, T* HSCONAS_RESTRICT odd) {
  const long half = n / 2;
  for (long j = 0; j < half; ++j) {
    even[j] = src[2 * j];
    odd[j] = src[2 * j + 1];
  }
  if (n % 2 != 0) even[half] = src[n - 1];
}

/// dst[c] = src[c * stride] for c < n.
template <class T>
void gather_strided(const T* HSCONAS_RESTRICT src, long stride, long n,
                    T* HSCONAS_RESTRICT dst) {
  for (long c = 0; c < n; ++c) dst[c] = src[c * stride];
}

template <class T>
void copy_row(const T* HSCONAS_RESTRICT src, long n, T* HSCONAS_RESTRICT dst) {
  for (long j = 0; j < n; ++j) dst[j] = src[j];
}

/// out[j] = act(scale · v[j] + shift), the activation fixed at compile
/// time so the loop is branch-free and vectorizes.
template <EpilogueAct kAct>
void affine_row(const float* HSCONAS_RESTRICT v, long n, float scale,
                float shift, float* HSCONAS_RESTRICT out) {
  for (long j = 0; j < n; ++j) {
    out[j] = epilogue_apply(kAct, scale * v[j] + shift);
  }
}

/// The one depthwise body: T = u8 codes summed in int32, or T = float
/// summed in float.
///
/// Stack the planes, `border`-padded, into a buffer of hq·s rows by wq·s
/// columns per plane (the padded extent rounded up to the stride), split
/// into s × s phases: phase (py, px) holds rows py, py + s, ... and
/// columns px, px + s, ... of every plane — hq rows of wq columns per
/// plane. Tap (ky, kx) of output (oy, ox) of plane p reads padded row
/// oy·s + ky, column ox·s + kx, which is row p·hq + oy + ky/s, column
/// ox + kx/s of phase (ky % s, kx % s). So in flat coordinates
/// o = (p·hq + oy)·wq + ox every tap is one contiguous run over the
/// outputs of all planes at once, at offset (ky/s)·wq + kx/s. Flat
/// positions that are no valid output are computed and dropped; no read
/// leaves its phase. The phases are filled straight from the planes, one
/// split per image row, so a strided conv reads its input once.
///
/// Each output adds its taps in (ky, kx) order. `write_row(v, ow, dst)`
/// then writes each valid row of sums to
/// out + p · out_plane_stride + oy·ow.
template <class T, class W, class WriteRow>
void depthwise_stacked(const T* x, std::size_t plane_stride, long planes,
                       const ConvGeom& g, T border, const W* wk,
                       const WriteRow& write_row,
                       typename Arith<T>::Acc* out,
                       std::size_t out_plane_stride) {
  using Acc = typename Arith<T>::Acc;
  using Prod = typename Arith<T>::Prod;
  HSCONAS_CHECK_MSG(g.kernel <= g.in_h + 2 * g.pad &&
                        g.kernel <= g.in_w + 2 * g.pad,
                    "depthwise: window larger than the padded plane");
  if (planes == 0) return;
  const long s = g.stride, k = g.kernel, pad = g.pad, w = g.in_w;
  const long oh = g.out_h(), ow = g.out_w();
  const long hq = (g.in_h + 2 * pad + s - 1) / s;
  const long wq = (w + 2 * pad + s - 1) / s;
  const long phase = planes * hq * wq;
  Workspace& ws = Workspace::tls();
  Scratch<T> phases = ws.take<T>(static_cast<std::size_t>(s * s * phase));
  T* ph = phases.data();
  std::fill(ph, ph + s * s * phase, border);
  // Image column ix is padded column ix + pad: column phase
  // (ix + pad) % s, phase column (ix + pad) / s.
  for (long p = 0; p < planes; ++p) {
    const T* src = x + static_cast<std::size_t>(p) * plane_stride;
    // Padded row iy + pad is row qy of row phase py.
    long py = pad % s, qy = pad / s;
    for (long iy = 0; iy < g.in_h; ++iy, src += w) {
      T* row = ph + py * s * phase + (p * hq + qy) * wq;
      if (s == 1) {
        copy_row(src, w, row + pad);
      } else if (s == 2) {
        const long even = pad % 2 * phase + pad / 2;
        const long odd = (pad + 1) % 2 * phase + (pad + 1) / 2;
        split_pairs(src, w, row + even, row + odd);
      } else {
        for (long r = 0; r < std::min(s, w); ++r) {
          gather_strided(src + r, s, (w - r + s - 1) / s,
                         row + (r + pad) % s * phase + (r + pad) / s);
        }
      }
      if (++py == s) {
        py = 0;
        ++qy;
      }
    }
  }
  const long len = (planes - 1) * hq * wq + (oh - 1) * wq + ow;
  Scratch<Acc> sums = ws.take<Acc>(static_cast<std::size_t>(len));
  Acc* flat = sums.data();
  const T* taps[kMaxRow];
  Prod wrow[kMaxRow];
  for (long o0 = 0; o0 < len; o0 += kBlock) {
    const long n = std::min(kBlock, len - o0);
    for (long ky = 0; ky < k; ++ky) {
      // Tap (ky, kx) reads phase (ky % s, kx % s) at (ky / s)·wq + kx / s.
      const T* base = ph + ky % s * s * phase + ky / s * wq + o0;
      long px = 0, qx = 0;
      for (long kx0 = 0; kx0 < k; kx0 += kMaxRow) {
        const long seg = std::min(kMaxRow, k - kx0);
        for (long j = 0; j < seg; ++j) {
          taps[j] = base + px * phase + qx;
          wrow[j] = static_cast<Prod>(wk[ky * k + kx0 + j]);
          if (++px == s) {
            px = 0;
            ++qx;
          }
        }
        if (ky == 0 && kx0 == 0) {
          row_pass<true>(seg, taps, wrow, flat + o0, n);
        } else {
          row_pass<false>(seg, taps, wrow, flat + o0, n);
        }
      }
    }
  }
  for (long p = 0; p < planes; ++p) {
    for (long oy = 0; oy < oh; ++oy) {
      write_row(flat + (p * hq + oy) * wq, ow,
                out + static_cast<std::size_t>(p) * out_plane_stride +
                    oy * ow);
    }
  }
}

}  // namespace

void depthwise_i8(const std::uint8_t* codes, std::size_t plane_stride,
                  long planes, const ConvGeom& g, std::uint8_t z,
                  const std::int8_t* wk, std::int32_t* acc) {
  depthwise_stacked(codes, plane_stride, planes, g, z, wk,
                    copy_row<std::int32_t>, acc,
                    static_cast<std::size_t>(g.out_h() * g.out_w()));
}

void depthwise_f32(const float* x, std::size_t plane_stride, long planes,
                   const ConvGeom& g, const float* wk,
                   const GemmEpilogue* ep, std::size_t row, float* out,
                   std::size_t out_plane_stride) {
  const auto write_row = [ep, row](const float* v, long n, float* dst) {
    if (ep == nullptr) return copy_row(v, n, dst);
    const auto len = static_cast<std::size_t>(n);
    epilogue_rows(*ep, row, 1, len, v, len, dst, len);
  };
  depthwise_stacked(x, plane_stride, planes, g, 0.0f, wk, write_row, out,
                    out_plane_stride);
}

void epilogue_rows(const GemmEpilogue& ep, std::size_t row0, std::size_t rows,
                   std::size_t n, const float* v, std::size_t ld_v, float* out,
                   std::size_t ld_out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = row0 + r;
    const float scale = ep.scale != nullptr ? ep.scale[i] : 1.0f;
    const float shift = ep.shift != nullptr ? ep.shift[i] : 0.0f;
    const float* src = v + r * ld_v;
    float* dst = out + r * ld_out;
    const auto len = static_cast<long>(n);
    switch (ep.act) {
      case EpilogueAct::kNone:
        affine_row<EpilogueAct::kNone>(src, len, scale, shift, dst);
        break;
      case EpilogueAct::kReLU:
        affine_row<EpilogueAct::kReLU>(src, len, scale, shift, dst);
        break;
      case EpilogueAct::kHSwish:
        affine_row<EpilogueAct::kHSwish>(src, len, scale, shift, dst);
        break;
    }
  }
}

}  // namespace hsconas::tensor
