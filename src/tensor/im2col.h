#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace hsconas::tensor {

/// Spatial geometry of a 2-D convolution (square kernels, symmetric padding).
struct ConvGeom {
  long in_channels = 0;
  long in_h = 0;
  long in_w = 0;
  long kernel = 1;
  long stride = 1;
  long pad = 0;

  long out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  long out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
};

/// Expand one image (C,H,W slice at `img`) into a (C*k*k) × (outH*outW)
/// column matrix for GEMM-based convolution. `cols` must hold
/// C*k*k*outH*outW floats.
void im2col(const float* img, const ConvGeom& g, float* cols);

/// im2col over u8 activation codes: row r of the (C*k*k) × (outH*outW)
/// column matrix goes to cols + r * ld, and taps outside the image read
/// `pad` — the activation zero point, the code of a real 0 — so the
/// matrix equals quantizing the float im2col of the same image.
void im2col_u8(const std::uint8_t* img, const ConvGeom& g, std::uint8_t pad,
               std::uint8_t* cols, std::size_t ld);

/// Inverse scatter-add of im2col: accumulate the column matrix back into the
/// (C,H,W) image gradient. `img_grad` must be pre-zeroed by the caller if a
/// fresh gradient is wanted.
void col2im(const float* cols, const ConvGeom& g, float* img_grad);

}  // namespace hsconas::tensor
