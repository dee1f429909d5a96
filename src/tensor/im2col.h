#pragma once

#include <cstddef>

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

/// A convolution's NCHW input read as a GEMM's B operand (k × n) without
/// building its column matrix. Row p is the tap (c, ky, kx) in im2col
/// order, so k = geom.in_channels · kernel²; column j is (sample s, output
/// pixel oy · out_w + ox), so n = batch · out_h · out_w. The entry is
/// x[s · sample_stride + c · in_h · in_w + iy · in_w + ix] at
/// iy = oy · stride + ky − pad, ix = ox · stride + kx − pad, or `pad` when
/// the tap falls outside the image: column j of im2col(sample s).
template <typename T>
struct ConvInput {
  const T* x = nullptr;
  std::size_t sample_stride = 0;  ///< elements from one sample to the next
  ConvGeom geom;                  ///< geom.in_channels: the rows' channels
  std::size_t batch = 0;
  T pad = T{};  ///< fp32: 0; u8 codes: the activation zero point

  std::size_t ohw() const {
    return static_cast<std::size_t>(geom.out_h() * geom.out_w());
  }
  std::size_t k() const {
    return static_cast<std::size_t>(geom.in_channels * geom.kernel *
                                    geom.kernel);
  }
  std::size_t n() const { return batch * ohw(); }
};

/// A GEMM's C operand (m × n over a ConvInput's columns) stored NCHW:
/// C[i][(s, pix)] is y[s · sample_stride + i · out_h · out_w + pix].
struct ConvOutput {
  float* y = nullptr;
  std::size_t sample_stride = 0;
};

/// Expand one image (C,H,W slice at `img`) into a (C*k*k) × (outH*outW)
/// column matrix for GEMM-based convolution, row r at cols + r · ld
/// (ld 0: outH*outW, a dense matrix). The conv backward uses it, writing
/// each sample's columns into one batch-wide matrix; the forward reads the
/// same matrix through a ConvInput.
void im2col(const float* img, const ConvGeom& g, float* cols,
            std::size_t ld = 0);

/// Inverse scatter-add of im2col: accumulate the column matrix (row stride
/// ld, as for im2col) back into the (C,H,W) image gradient. `img_grad`
/// must be pre-zeroed by the caller if a fresh gradient is wanted.
void col2im(const float* cols, const ConvGeom& g, float* img_grad,
            std::size_t ld = 0);

}  // namespace hsconas::tensor
