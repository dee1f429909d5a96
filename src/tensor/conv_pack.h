#pragma once

// How the GEMMs read a ConvInput (tensor/im2col.h) and write a
// ConvOutput: private to gemm.cpp and gemm_i8.cpp, which instantiate the
// gather for fp32 inputs and for u8 codes.

#include <algorithm>
#include <cstddef>

#include "tensor/im2col.h"

namespace hsconas::tensor {

/// Calls fn(s, pix, t, len) for each piece of the GEMM columns
/// [j0, j0 + nr) that lies in one sample: columns j0 + t .. j0 + t + len
/// are pixels pix .. pix + len of sample s.
template <typename Fn>
void for_each_sample_piece(std::size_t j0, std::size_t nr, std::size_t ohw,
                           Fn&& fn) {
  std::size_t s = j0 < ohw ? 0 : j0 / ohw, pix = j0 - s * ohw;
  for (std::size_t t = 0; t < nr; ++s, pix = 0) {
    const std::size_t len = std::min(ohw - pix, nr - t);
    fn(s, pix, t, len);
    t += len;
  }
}

/// The GEMM packers' window gather: writes rows [p0, p0 + rows) of the
/// columns [j0, j0 + nr) (nr <= 16) of `b`, row p column j0 + t going to
/// row_ptr(p)[t · kStep]. A 1×1 stride-1 unpadded conv copies each row of
/// each sample's piece of the columns; the caller zeroes columns past nr.
/// Any other conv writes all 16 columns (zeros past nr) and splits them
/// once into runs that share one (sample, output row). Each row then
/// builds its 16 values in a stack buffer, one 16-wide copy per run where
/// the read stays inside the input (later runs overwrite the overhang),
/// patching the few taps that fall outside the image row.
template <std::size_t kStep, typename T, typename RowPtr>
void gather_conv_rows(const ConvInput<T>& b, std::size_t p0, std::size_t rows,
                      std::size_t j0, std::size_t nr, RowPtr&& row_ptr) {
  const ConvGeom& g = b.geom;
  const long hw = g.in_h * g.in_w;
  if (g.kernel == 1 && g.stride == 1 && g.pad == 0) {
    for_each_sample_piece(j0, nr, static_cast<std::size_t>(hw),
                          [&](std::size_t s, std::size_t pix, std::size_t t,
                              std::size_t len) {
      const T* src = b.x + s * b.sample_stride + pix;
      for (std::size_t p = p0; p < p0 + rows; ++p) {
        const T* from = src + p * static_cast<std::size_t>(hw);
        T* to = row_ptr(p) + t * kStep;
        if (len == 16) {
          for (std::size_t i = 0; i < 16; ++i) to[i * kStep] = from[i];
        } else {
          for (std::size_t i = 0; i < len; ++i) to[i * kStep] = from[i];
        }
      }
    });
    return;
  }
  const long oh = g.out_h(), ow = g.out_w();
  const long x_len = static_cast<long>((b.batch - 1) * b.sample_stride) +
                     g.in_channels * hw;
  struct Run {
    long img, oy, ox, end, shift;  // output column x goes to buf[x + shift]
    bool wide;                     // a 16-wide read from any tap stays in x
  };
  Run runs[16];
  std::size_t nruns = 0;
  const auto j = static_cast<long>(j0), ncols = static_cast<long>(nr);
  long s = j / (oh * ow), oy = j % (oh * ow) / ow;
  for (long t = 0, ox = j % ow; t < ncols; ox = 0) {
    const long len = std::min(ow - ox, ncols - t);
    const long img = s * static_cast<long>(b.sample_stride);
    const long first = img + (oy - g.pad) * g.in_w + ox - g.pad;
    const long last = first + (g.in_channels - 1) * hw +
                      (g.kernel - 1) * (g.in_w + 1) + 16;
    runs[nruns++] = {img, oy, ox, ox + len, t - ox,
                     g.stride == 1 && first >= 0 && last <= x_len};
    t += len;
    if (++oy == oh) { oy = 0; ++s; }
  }
  const auto p = static_cast<long>(p0);
  long c = p / (g.kernel * g.kernel), ky = p / g.kernel % g.kernel;
  for (long r = 0, kx = p % g.kernel; r < static_cast<long>(rows); ++r) {
    alignas(64) T buf[32];
    const long off = kx - g.pad;
    for (std::size_t i = 0; i < nruns; ++i) {
      const Run& run = runs[i];
      const long iy = run.oy * g.stride + ky - g.pad;
      T* dst = buf + run.ox + run.shift;  // output column run.ox
      if (iy < 0 || iy >= g.in_h) {
        std::fill_n(dst, 16, b.pad);
        continue;
      }
      const T* row = b.x + run.img + c * hw + iy * g.in_w;
      if (!run.wide) {
        for (long x = run.ox; x < run.end; ++x) {
          const long ix = x * g.stride + off;
          buf[x + run.shift] = ix >= 0 && ix < g.in_w ? row[ix] : b.pad;
        }
        continue;
      }
      std::copy_n(row + run.ox + off, 16, dst);
      for (long x = run.ox; x < run.end && x + off < 0; ++x) {
        buf[x + run.shift] = b.pad;
      }
      for (long x = run.end - 1; x >= run.ox && x + off >= g.in_w; --x) {
        buf[x + run.shift] = b.pad;
      }
    }
    if (nr < 16) std::fill(buf + nr, buf + 16, T{});
    T* to = row_ptr(p0 + static_cast<std::size_t>(r));
    for (std::size_t i = 0; i < 16; ++i) to[i * kStep] = buf[i];
    if (++kx < g.kernel) continue;
    kx = 0;
    if (++ky == g.kernel) {
      ky = 0;
      ++c;
    }
  }
}

}  // namespace hsconas::tensor
