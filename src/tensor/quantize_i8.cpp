#include "tensor/quantize_i8.h"

#include <algorithm>
#include <cmath>

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
