#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace hsconas::tensor {

namespace {

/// In-bounds output range [x_lo, x_hi) for one kernel column offset:
/// 0 <= x*stride + off < in_w. Depends only on the kernel tap, so callers
/// hoist it out of the spatial loops and the inner copies run branch-free.
void x_bounds(long off, long stride, long in_w, long ow, long* x_lo,
              long* x_hi) {
  *x_lo = off >= 0 ? 0 : std::min(ow, (-off + stride - 1) / stride);
  *x_hi = off < in_w
              ? std::min(ow, (in_w - off + stride - 1) / stride)
              : 0;
  if (*x_hi < *x_lo) *x_hi = *x_lo;
}

}  // namespace

void im2col(const float* img, const ConvGeom& g, float* cols,
            std::size_t ld) {
  static obs::Counter& calls = obs::counter("hsconas.im2col.calls");
  calls.add();
  const long oh = g.out_h(), ow = g.out_w();
  const long row_len = ld == 0 ? oh * ow : static_cast<long>(ld);
  const long hw = g.in_h * g.in_w;
  long row = 0;
  for (long c = 0; c < g.in_channels; ++c) {
    const float* chan = img + c * hw;
    for (long ki = 0; ki < g.kernel; ++ki) {
      for (long kj = 0; kj < g.kernel; ++kj, ++row) {
        float* out = cols + row * row_len;
        const long off = kj - g.pad;
        long x_lo, x_hi;
        x_bounds(off, g.stride, g.in_w, ow, &x_lo, &x_hi);
        for (long y = 0; y < oh; ++y) {
          float* dst = out + y * ow;
          const long iy = y * g.stride + ki - g.pad;
          if (iy < 0 || iy >= g.in_h) {
            std::memset(dst, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src_row = chan + iy * g.in_w;
          for (long x = 0; x < x_lo; ++x) dst[x] = 0.0f;
          if (g.stride == 1) {
            // The whole in-bounds run is contiguous in the source row.
            std::memcpy(dst + x_lo, src_row + x_lo + off,
                        static_cast<std::size_t>(x_hi - x_lo) * sizeof(float));
          } else {
            for (long x = x_lo; x < x_hi; ++x) {
              dst[x] = src_row[x * g.stride + off];
            }
          }
          for (long x = x_hi; x < ow; ++x) dst[x] = 0.0f;
        }
      }
    }
  }
}

void col2im(const float* cols, const ConvGeom& g, float* img_grad,
            std::size_t ld) {
  static obs::Counter& calls = obs::counter("hsconas.col2im.calls");
  calls.add();
  const long oh = g.out_h(), ow = g.out_w();
  const long row_len = ld == 0 ? oh * ow : static_cast<long>(ld);
  const long hw = g.in_h * g.in_w;
  long row = 0;
  for (long c = 0; c < g.in_channels; ++c) {
    float* chan = img_grad + c * hw;
    for (long ki = 0; ki < g.kernel; ++ki) {
      for (long kj = 0; kj < g.kernel; ++kj, ++row) {
        const float* in = cols + row * row_len;
        const long off = kj - g.pad;
        long x_lo, x_hi;
        x_bounds(off, g.stride, g.in_w, ow, &x_lo, &x_hi);
        for (long y = 0; y < oh; ++y) {
          const long iy = y * g.stride + ki - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst_row = chan + iy * g.in_w;
          const float* src = in + y * ow;
          if (g.stride == 1) {
            float* dst = dst_row + x_lo + off;
            for (long x = x_lo; x < x_hi; ++x) dst[x - x_lo] += src[x];
          } else {
            for (long x = x_lo; x < x_hi; ++x) {
              dst_row[x * g.stride + off] += src[x];
            }
          }
        }
      }
    }
  }
}

}  // namespace hsconas::tensor
