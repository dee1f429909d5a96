#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/quantize_i8.h"

namespace hsconas::tensor {

/// Largest supported reduction depth. |q_w * q_act| <= 127 * 255, so any
/// k below this bound cannot overflow the int32 accumulators; the entry
/// throws InvalidArgument past it.
inline constexpr std::size_t kGemmI8MaxK = 1u << 16;

/// The int8 GEMM, run as an implicit-GEMM convolution: y = ep(A · B), A
/// (m×k, int8 weights, row stride lda >= k), B the conv view `b` over the
/// batch's u8 activation codes (k = b.k(), n = b.n(); padded taps read
/// b.pad, the activation zero point) and C the NCHW output `c`, written
/// in full. The packer gathers windows straight from the codes and each
/// finished int32 tile is requantized (requant_rows) straight into y —
/// one memory pass for matmul + dequantize + bias/BN + activation. The
/// operand signedness (symmetric int8 weights × asymmetric u8
/// activations) matches the AVX-512 VNNI dot-product instruction, which
/// multiplies unsigned by signed bytes. Accumulation is exact integer
/// arithmetic, so the result is bit-identical at any thread count and
/// on every code path (VNNI, scalar, small, blocked) by construction.
///
/// A dense m×k · k×n product is the 1×1 view of one k-channel 1×n image:
/// ConvInput<std::uint8_t>{b, k · n, {k, 1, n, 1, 1, 0}, 1, 0} with
/// ConvOutput{c, m · n}; a fully connected layer over N rows of k codes is
/// N images of k channels of 1×1 (nn::Linear). See docs/QUANTIZATION.md.
void gemm_i8_requant(std::size_t m, const std::int8_t* a, std::size_t lda,
                     const ConvInput<std::uint8_t>& b, const ConvOutput& c,
                     const QuantEpilogue& ep);

}  // namespace hsconas::tensor
