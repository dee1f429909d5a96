#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace hsconas::tensor {

/// The int8 activation kernels. Every float <-> integer crossing of the
/// quantized forward happens here, at two sanctioned sites: quantize_u8
/// on the way in and requant_rows on the way out. The integer work
/// between them — depthwise_i8 (tensor/depthwise.h) and the int8 GEMM,
/// whose conv packer gathers u8 windows — never touches a float. Built with HSCONAS_NATIVE_KERNELS like the
/// int8 GEMM, so both crossings run as vector code. See
/// docs/QUANTIZATION.md.

/// Affine quantization parameters of the u8 activation codes:
/// real_value = scale * (code - zero_point).
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Requantization epilogue for an int32 accumulator row i (the
/// out-channel axis for a lowered conv):
///
///   out[i, j] = act(scale[i] * float(acc[i, j] + acc_bias[i]) + shift[i])
///
/// This is the same writeback slot as the fp32 GemmEpilogue — scale/shift
/// carry the combined dequantization affine (s_act * s_weight[i], times any
/// folded BatchNorm scale) plus bias/BN shift, and acc_bias carries the
/// integer zero-point correction (-z_act * Σ_k qweight[i][k]), so
/// dequantize + bias + BN + activation is one pass over the output.
/// Null scale means 1, null shift / acc_bias mean 0.
struct QuantEpilogue {
  const float* scale = nullptr;            ///< length m, or null for 1
  const float* shift = nullptr;            ///< length m, or null for 0
  const std::int32_t* acc_bias = nullptr;  ///< length m, or null for 0
  EpilogueAct act = EpilogueAct::kNone;
};

/// Quantize n floats with the asymmetric u8 quantizer:
///   out[i] = clamp(nearbyint(x[i] * (1 / p.scale)) + p.zero_point, 0, 255)
/// in the current (round-to-nearest-even) rounding mode; ±inf clamp to
/// 0 / 255. No alignment requirement on either pointer. The vector loop
/// takes 64 elements a step, so callers quantize whole tensors or planes
/// in one call rather than row by row.
void quantize_u8(const float* x, std::size_t n, QuantParams p,
                 std::uint8_t* out);

/// The requantizing writeback: for r < rows and j < n,
///   out[r·ld_out + j] = act(affine(scale[row0 + r],
///                       float(acc[r·ld_acc + j] + acc_bias[row0 + r]),
///                       shift[row0 + r]))
/// with the product and the sum rounded separately, exactly as
/// epilogue_affine does — so every dtype path shares the fp32 epilogue's
/// arithmetic. Each row runs as one vector pass.
void requant_rows(const QuantEpilogue& ep, std::size_t row0, std::size_t rows,
                  std::size_t n, const std::int32_t* acc, std::size_t ld_acc,
                  float* out, std::size_t ld_out);

}  // namespace hsconas::tensor
