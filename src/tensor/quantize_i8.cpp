#include "tensor/quantize_i8.h"

#include <algorithm>
#include <cmath>

#include "tensor/workspace.h"
#include "util/error.h"

// This TU is compiled with -ffp-contract=off (src/tensor/CMakeLists.txt):
// requant_rows rounds the product and the shift add separately, like
// epilogue_affine, without the per-value asm barrier that would stop its
// rows from vectorizing.

namespace hsconas::tensor {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define HSCONAS_RESTRICT __restrict__
#else
#define HSCONAS_RESTRICT
#endif

/// One requantized row, the activation fixed at compile time so the loop
/// body is branch-free and vectorizes.
template <EpilogueAct kAct>
void requant_row(const std::int32_t* HSCONAS_RESTRICT a, std::size_t n,
                 std::int32_t b, float s, float t,
                 float* HSCONAS_RESTRICT out) {
  for (std::size_t j = 0; j < n; ++j) {
    // hsconas-lint-allow(quant-dtype-discipline): the code -> float crossing.
    out[j] = epilogue_apply(kAct, s * static_cast<float>(a[j] + b) + t);
  }
}

/// acc[o] += w * src[o] for o < len: one depthwise tap over every output.
void accumulate_tap(const std::uint8_t* HSCONAS_RESTRICT src, std::int32_t w,
                    std::int32_t* HSCONAS_RESTRICT acc, long len) {
  for (long o = 0; o < len; ++o) {
    acc[o] += w * static_cast<std::int32_t>(src[o]);
  }
}

/// dst[c] = src[c * stride] for c < n; kStride > 0 fixes the stride at
/// compile time so the gather vectorizes.
template <long kStride>
void gather_strided(const std::uint8_t* HSCONAS_RESTRICT src, long stride,
                    long n, std::uint8_t* HSCONAS_RESTRICT dst) {
  if constexpr (kStride > 0) stride = kStride;
  for (long c = 0; c < n; ++c) dst[c] = src[c * stride];
}

}  // namespace

void quantize_u8(const float* x, std::size_t n, QuantParams p,
                 std::uint8_t* out) {
  const float inv = 1.0f / p.scale;
  const std::int32_t zp = p.zero_point;
  for (std::size_t i = 0; i < n; ++i) {
    // hsconas-lint-allow(quant-dtype-discipline): the float -> code crossing.
    const float v = std::nearbyint(x[i] * inv) + static_cast<float>(zp);
    out[i] = static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
  }
}

void depthwise_i8(const std::uint8_t* codes, std::size_t plane_stride,
                  long planes, const ConvGeom& g, std::uint8_t z,
                  const std::int8_t* wk, std::int32_t* acc) {
  // Stack the planes, z-bordered, into one tall buffer whose blocks
  // (hb rows) and rows (wp columns) are rounded up to the stride. Split
  // it into `stride` column phases — phase px holds columns px,
  // px + stride, ... of every row, row pitch wq = wp / stride — which,
  // with rows a multiple of the stride, is one strided gather over the
  // whole buffer. Tap (ky, kx) of output (oy, ox) of plane p then reads
  // phase kx % stride at row p·hb + oy·stride + ky, column ox + kx/stride:
  // in flat coordinates o = (p·hb + oy·stride)·wq + ox every tap is one
  // contiguous run over the outputs of all planes at once. Flat positions
  // that are no valid output are computed and dropped when `acc` is
  // compacted; no read leaves the phases.
  HSCONAS_CHECK_MSG(g.kernel <= g.in_h + 2 * g.pad &&
                        g.kernel <= g.in_w + 2 * g.pad,
                    "depthwise_i8: window larger than the padded plane");
  const long s = g.stride, k = g.kernel;
  const long oh = g.out_h(), ow = g.out_w();
  const long hb = (g.in_h + 2 * g.pad + s - 1) / s * s;
  const long wq = (g.in_w + 2 * g.pad + s - 1) / s;
  const long wp = wq * s;
  const long tall = planes * hb * wp;  // bytes of the stacked buffer
  Workspace& ws = Workspace::tls();
  ByteScratch stacked = ws.take_bytes(static_cast<std::size_t>(tall));
  std::uint8_t* st = stacked.u8();
  std::fill(st, st + tall, z);
  for (long p = 0; p < planes; ++p) {
    const std::uint8_t* plane =
        codes + static_cast<std::size_t>(p) * plane_stride;
    for (long iy = 0; iy < g.in_h; ++iy) {
      std::copy(plane + iy * g.in_w, plane + (iy + 1) * g.in_w,
                st + (p * hb + g.pad + iy) * wp + g.pad);
    }
  }
  const long phase = tall / s;
  ByteScratch phases;
  const std::uint8_t* base = st;
  if (s > 1) {
    phases = ws.take_bytes(static_cast<std::size_t>(tall));
    for (long px = 0; px < s; ++px) {
      if (s == 2) {
        gather_strided<2>(st + px, s, phase, phases.u8() + px * phase);
      } else {
        gather_strided<0>(st + px, s, phase, phases.u8() + px * phase);
      }
    }
    base = phases.u8();
  }
  const long len = (planes - 1) * hb * wq + (oh - 1) * s * wq + ow;
  ByteScratch flat_bytes =
      ws.take_bytes(static_cast<std::size_t>(len) * sizeof(std::int32_t));
  // int32 view of 64B-aligned pooled scratch, not wire decoding.
  // hsconas-lint-allow(serial-pointer-cast)
  std::int32_t* flat = reinterpret_cast<std::int32_t*>(flat_bytes.u8());
  std::fill(flat, flat + len, 0);
  for (long ky = 0; ky < k; ++ky) {
    for (long kx = 0; kx < k; ++kx) {
      accumulate_tap(base + (kx % s) * phase + ky * wq + kx / s,
                     wk[ky * k + kx], flat, len);
    }
  }
  for (long p = 0; p < planes; ++p) {
    for (long oy = 0; oy < oh; ++oy) {
      const std::int32_t* row = flat + (p * hb + oy * s) * wq;
      std::copy(row, row + ow, acc + (p * oh + oy) * ow);
    }
  }
}

void requant_rows(const QuantEpilogue& ep, std::size_t row0, std::size_t rows,
                  std::size_t n, const std::int32_t* acc, std::size_t ld_acc,
                  float* out, std::size_t ld_out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = row0 + r;
    const std::int32_t bias = ep.acc_bias != nullptr ? ep.acc_bias[i] : 0;
    const float scale = ep.scale != nullptr ? ep.scale[i] : 1.0f;
    const float shift = ep.shift != nullptr ? ep.shift[i] : 0.0f;
    const std::int32_t* a = acc + r * ld_acc;
    float* o = out + r * ld_out;
    switch (ep.act) {
      case EpilogueAct::kNone:
        requant_row<EpilogueAct::kNone>(a, n, bias, scale, shift, o);
        break;
      case EpilogueAct::kReLU:
        requant_row<EpilogueAct::kReLU>(a, n, bias, scale, shift, o);
        break;
      case EpilogueAct::kHSwish:
        requant_row<EpilogueAct::kHSwish>(a, n, bias, scale, shift, o);
        break;
    }
  }
}

}  // namespace hsconas::tensor
