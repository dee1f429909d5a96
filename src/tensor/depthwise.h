#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace hsconas::tensor {

/// The depthwise conv kernels, one per dtype, sharing one design: the
/// caller hands over one channel of every sample in a batch — `planes`
/// g.in_h × g.in_w planes, plane p at x + p · plane_stride, all sharing
/// one k × k kernel `wk` — and the kernel stacks them into one bordered
/// buffer, splits it into stride phases and runs each tap (ky, kx) as one
/// contiguous vector pass over every output of the channel. Built with
/// HSCONAS_NATIVE_KERNELS and -ffp-contract=off.

/// Int8 depthwise accumulation. The window reaches past the plane's edges
/// into a border of z (the activation zero point). For each plane p and
/// output (oy, ox) of g.out_h() × g.out_w():
///   acc[(p·oh + oy)·ow + ox] =
///       Σ_{ky, kx} wk[ky·k + kx] · padded_p[oy·stride + ky, ox·stride + kx]
/// over the full window. Integer sums do not depend on order.
void depthwise_i8(const std::uint8_t* codes, std::size_t plane_stride,
                  long planes, const ConvGeom& g, std::uint8_t z,
                  const std::int8_t* wk, std::int32_t* acc);

/// fp32 depthwise with its writeback fused. For each plane p and output
/// (oy, ox):
///   v = Σ_{ky, kx} wk[ky·k + kx] · padded_p[oy·stride + ky, ox·stride + kx]
/// added in (ky, kx) order starting from 0.0f, each product and each sum
/// rounded on its own (no FMA), over the full window of a 0.0f-bordered
/// plane; then
///   out[p · out_plane_stride + oy·ow + ox] = act(scale[row] · v + shift[row])
/// with the product and the sum rounded separately, exactly as
/// epilogue_affine does. Null `ep` writes v itself; in a non-null `ep`,
/// null scale means 1 and null shift means 0.
///
/// Finite-weight contract: a padded tap adds wk · 0.0f, which is ±0 and
/// leaves the running sum (never −0, since it starts from +0) unchanged —
/// so for finite weights the result is bit-identical to the sum that
/// skips the taps outside the image. An infinite or NaN weight instead
/// makes every output whose window touches the border NaN (inf · 0), where
/// the skipping sum could stay finite.
void depthwise_f32(const float* x, std::size_t plane_stride, long planes,
                   const ConvGeom& g, const float* wk,
                   const GemmEpilogue* ep, std::size_t row, float* out,
                   std::size_t out_plane_stride);

}  // namespace hsconas::tensor
