#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/quantize_i8.h"

namespace hsconas::tensor {

/// Largest supported reduction depth. |q_w * q_act| <= 127 * 255, so any
/// k below this bound cannot overflow the int32 accumulators; both entry
/// points throw InvalidArgument past it.
inline constexpr std::size_t kGemmI8MaxK = 1u << 16;

/// C (m×n, int32) = A (m×k, int8) · B (k×n, uint8). Row-major, contiguous;
/// C is overwritten. The operand signedness matches the quantization
/// scheme (symmetric int8 weights × asymmetric uint8 activations) and the
/// AVX-512 VNNI dot-product instruction, which multiplies unsigned by
/// signed bytes. Accumulation is exact integer arithmetic, so results are
/// bit-identical at any thread count and for every code path (VNNI,
/// scalar) by construction. See docs/QUANTIZATION.md.
void gemm_i8(std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
             const std::uint8_t* b, std::int32_t* c);

/// C (m×n, float) = ep(A (m×k, int8) · B (k×n, uint8)): the int32 product
/// with the requantize epilogue (requant_rows) applied to each finished
/// accumulator tile as it is written back — one memory pass for matmul +
/// dequantize + bias/BN + activation. The integer accumulation is exact,
/// so this too is bit-deterministic at any thread count.
void gemm_i8_requant(std::size_t m, std::size_t n, std::size_t k,
                     const std::int8_t* a, const std::uint8_t* b, float* c,
                     const QuantEpilogue& ep);

/// Implicit-GEMM int8 convolution: y = ep(A (m×k, int8, row stride
/// lda >= k) · B), B the conv view `b` over the batch's u8 codes (padded
/// taps read b.pad, the activation zero point) and C the NCHW output `c`,
/// written in full. The packer gathers windows straight from the codes and
/// each finished tile is requantized straight into y. Same dispatch as the
/// dense entry, so bit-identical to gemm_i8_requant over the u8 im2col
/// columns, scattered to NCHW.
void gemm_i8_requant(std::size_t m, const std::int8_t* a, std::size_t lda,
                     const ConvInput<std::uint8_t>& b, const ConvOutput& c,
                     const QuantEpilogue& ep);

/// True when the AVX-512 VNNI microkernel is compiled in (bench/report
/// context; the scalar fallback computes identical values).
bool gemm_i8_vnni_enabled();

}  // namespace hsconas::tensor
