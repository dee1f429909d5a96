#include "nn/shuffle.h"

#include <cstring>

#include "nn/op_profile.h"

namespace hsconas::nn {

using tensor::Tensor;

namespace {

void copy_planes(float* dst, const float* src, long planes, long spatial) {
  std::memcpy(dst, src,
              static_cast<std::size_t>(planes * spatial) * sizeof(float));
}

}  // namespace

Tensor interleave_channels(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 4 || b.ndim() != 4 || a.dim(0) != b.dim(0) ||
      a.dim(2) != b.dim(2) || a.dim(3) != b.dim(3) || b.dim(1) < 1 ||
      a.dim(1) < b.dim(1)) {
    throw InvalidArgument("interleave_channels: incompatible shapes " +
                          a.shape_str() + " vs " + b.shape_str());
  }
  const long n = b.dim(0), half = b.dim(1), ac = a.dim(1);
  const long spatial = b.dim(2) * b.dim(3);
  // Every element is written below.
  Tensor y = Tensor::for_overwrite({n, 2 * half, b.dim(2), b.dim(3)});
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("channel_shuffle", "shuffle", y, 0.0);
  });
  for (long s = 0; s < n; ++s) {
    const float* left = a.data() + s * ac * spatial;
    const float* right = b.data() + s * half * spatial;
    float* out = y.data() + s * 2 * half * spatial;
    for (long i = 0; i < half; ++i) {
      copy_planes(out + 2 * i * spatial, left + i * spatial, 1, spatial);
      copy_planes(out + (2 * i + 1) * spatial, right + i * spatial, 1,
                  spatial);
    }
  }
  return y;
}

void deinterleave_channels(const Tensor& y, Tensor& a, Tensor& b) {
  if (y.ndim() != 4 || y.dim(1) < 2 || y.dim(1) % 2 != 0) {
    throw InvalidArgument("deinterleave_channels: expected NCHW with an "
                          "even channel count, got " + y.shape_str());
  }
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("channel_shuffle.bwd", "shuffle", y,
                                      0.0);
  });
  const long n = y.dim(0), half = y.dim(1) / 2;
  const long spatial = y.dim(2) * y.dim(3);
  a = Tensor::for_overwrite({n, half, y.dim(2), y.dim(3)});
  b = Tensor::for_overwrite({n, half, y.dim(2), y.dim(3)});
  for (long s = 0; s < n; ++s) {
    const float* in = y.data() + s * 2 * half * spatial;
    float* left = a.data() + s * half * spatial;
    float* right = b.data() + s * half * spatial;
    for (long i = 0; i < half; ++i) {
      copy_planes(left + i * spatial, in + 2 * i * spatial, 1, spatial);
      copy_planes(right + i * spatial, in + (2 * i + 1) * spatial, 1,
                  spatial);
    }
  }
}

Tensor slice_channels(const Tensor& x, long c0, long count) {
  if (x.ndim() != 4) {
    throw InvalidArgument("slice_channels: expected NCHW, got " +
                          x.shape_str());
  }
  const long n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (c0 < 0 || count <= 0 || c0 + count > c) {
    throw InvalidArgument("slice_channels: bad channel range");
  }
  const long spatial = h * w;
  Tensor y = Tensor::for_overwrite({n, count, h, w});
  for (long s = 0; s < n; ++s) {
    copy_planes(y.data() + s * count * spatial,
                x.data() + (s * c + c0) * spatial, count, spatial);
  }
  return y;
}

Tensor concat_channels(const Tensor& left, const Tensor& right) {
  if (left.ndim() != 4 || right.ndim() != 4 || left.dim(0) != right.dim(0) ||
      left.dim(2) != right.dim(2) || left.dim(3) != right.dim(3)) {
    throw InvalidArgument("concat_channels: incompatible shapes " +
                          left.shape_str() + " vs " + right.shape_str());
  }
  const long n = left.dim(0), lc = left.dim(1), rc = right.dim(1);
  const long h = left.dim(2), w = left.dim(3);
  const long spatial = h * w;
  Tensor y = Tensor::for_overwrite({n, lc + rc, h, w});
  for (long s = 0; s < n; ++s) {
    copy_planes(y.data() + (s * (lc + rc)) * spatial,
                left.data() + s * lc * spatial, lc, spatial);
    copy_planes(y.data() + (s * (lc + rc) + lc) * spatial,
                right.data() + s * rc * spatial, rc, spatial);
  }
  return y;
}

}  // namespace hsconas::nn
