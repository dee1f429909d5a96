#include "nn/pooling.h"

#include <limits>
#include <span>

#include "nn/op_profile.h"
#include "util/thread_pool.h"

namespace hsconas::nn {

using tensor::Tensor;

namespace {

/// Global average pool: one add per input element, output is (N, C).
/// Takes the NCHW shape (not the tensor) so backward can describe itself
/// from the cached input shape without materializing anything.
obs::OpInfo gap_op_info(const char* op, std::span<const long> shape) {
  obs::OpInfo info;
  info.key.op = op;
  info.key.kind = "pool";
  if (shape.size() != 4) return info;
  info.key.batch = shape[0];
  info.key.in_ch = shape[1];
  info.key.out_ch = shape[1];
  info.key.in_h = shape[2];
  info.key.in_w = shape[3];
  info.key.kernel = shape[2];  // window spans the whole plane
  info.key.stride = shape[2];
  const double numel = static_cast<double>(shape[0] * shape[1]) *
                       static_cast<double>(shape[2] * shape[3]);
  info.flops = numel;
  info.bytes = 4.0 * (numel + static_cast<double>(shape[0] * shape[1]));
  return info;
}

/// Max pool: kernel² compares per output element.
obs::OpInfo maxpool_op_info(const char* op, std::span<const long> shape,
                            long kernel, long stride, long pad) {
  obs::OpInfo info;
  info.key.op = op;
  info.key.kind = "pool";
  info.key.kernel = kernel;
  info.key.stride = stride;
  if (shape.size() != 4) return info;
  const long h = shape[2], w = shape[3];
  const long oh = (h + 2 * pad - kernel) / stride + 1;
  const long ow = (w + 2 * pad - kernel) / stride + 1;
  info.key.batch = shape[0];
  info.key.in_ch = shape[1];
  info.key.out_ch = shape[1];
  info.key.in_h = h;
  info.key.in_w = w;
  if (oh <= 0 || ow <= 0) return info;
  const double in_numel = static_cast<double>(shape[0] * shape[1]) *
                          static_cast<double>(h * w);
  const double out_numel = static_cast<double>(shape[0] * shape[1]) *
                           static_cast<double>(oh * ow);
  info.flops = out_numel * static_cast<double>(kernel * kernel);
  info.bytes = 4.0 * (in_numel + out_numel);
  return info;
}

}  // namespace

// Pooling parallelizes over (sample, channel) planes: every plane reads
// and writes disjoint memory and the within-plane loops are serial, so
// outputs are identical at any thread count. Each loop passes its per-plane
// work, so a small tensor runs inline (util::kParallelWorkFloor).

Tensor GlobalAvgPool::forward(const Tensor& x) {
  obs::OpScope prof([&] { return gap_op_info("gap", x.shape()); });
  if (x.ndim() != 4) {
    throw InvalidArgument("GlobalAvgPool: expected NCHW, got " +
                          x.shape_str());
  }
  if (keeps_backward_state()) cached_shape_ = x.shape();
  const long n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  util::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n * c), static_cast<std::size_t>(spatial),
      [&](std::size_t t) {
        const long s = static_cast<long>(t) / c;
        const long ch = static_cast<long>(t) % c;
        const float* chan = x.data() + ((s * c + ch) * spatial);
        double acc = 0.0;
        for (long i = 0; i < spatial; ++i) acc += chan[i];
        y.at(s, ch) = static_cast<float>(acc / static_cast<double>(spatial));
      });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& dy) {
  HSCONAS_CHECK_MSG(!cached_shape_.empty(),
                    "GlobalAvgPool::backward before forward");
  obs::OpScope prof([&] { return gap_op_info("gap.bwd", cached_shape_); });
  const long n = cached_shape_[0], c = cached_shape_[1];
  const long spatial = cached_shape_[2] * cached_shape_[3];
  HSCONAS_CHECK_MSG(dy.ndim() == 2 && dy.dim(0) == n && dy.dim(1) == c,
                    "GlobalAvgPool::backward: dy shape mismatch");
  Tensor dx(cached_shape_);
  const float scale = 1.0f / static_cast<float>(spatial);
  util::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n * c), static_cast<std::size_t>(spatial),
      [&](std::size_t t) {
        const long s = static_cast<long>(t) / c;
        const long ch = static_cast<long>(t) % c;
        const float g = dy.at(s, ch) * scale;
        float* chan = dx.data() + ((s * c + ch) * spatial);
        for (long i = 0; i < spatial; ++i) chan[i] = g;
      });
  return dx;
}

MaxPool2d::MaxPool2d(long kernel, long stride, long pad)
    : kernel_(kernel), stride_(stride), pad_(pad) {
  if (kernel <= 0 || stride <= 0 || pad < 0) {
    throw InvalidArgument("MaxPool2d: bad geometry");
  }
}

Tensor MaxPool2d::forward(const Tensor& x) {
  obs::OpScope prof([&] {
    return maxpool_op_info("maxpool", x.shape(), kernel_, stride_, pad_);
  });
  if (x.ndim() != 4) {
    throw InvalidArgument("MaxPool2d: expected NCHW, got " + x.shape_str());
  }
  const bool keep = keeps_backward_state();
  if (keep) cached_in_shape_ = x.shape();
  const long n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const long oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const long ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
  if (oh <= 0 || ow <= 0) {
    throw InvalidArgument("MaxPool2d: output collapses to zero size");
  }
  Tensor y({n, c, oh, ow});
  if (keep) {
    argmax_.assign(static_cast<std::size_t>(n * c * oh * ow), -1);
    note_backward_state(argmax_.size() * sizeof(long));
  }

  util::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n * c),
      static_cast<std::size_t>(oh * ow * kernel_ * kernel_),
      [&](std::size_t t) {
        const long s = static_cast<long>(t) / c;
        const long ch = static_cast<long>(t) % c;
        const float* chan = x.data() + ((s * c + ch) * h * w);
        float* out = y.data() + ((s * c + ch) * oh * ow);
        long* amax = keep ? argmax_.data() + static_cast<std::size_t>(
                                                 (s * c + ch) * oh * ow)
                          : nullptr;
        for (long oy = 0; oy < oh; ++oy) {
          for (long ox = 0; ox < ow; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            long best_idx = -1;
            for (long ky = 0; ky < kernel_; ++ky) {
              const long iy = oy * stride_ + ky - pad_;
              if (iy < 0 || iy >= h) continue;
              for (long kx = 0; kx < kernel_; ++kx) {
                const long ix = ox * stride_ + kx - pad_;
                if (ix < 0 || ix >= w) continue;
                const long idx = iy * w + ix;
                if (chan[idx] > best) {
                  best = chan[idx];
                  best_idx = idx;
                }
              }
            }
            out[oy * ow + ox] = best_idx >= 0 ? best : 0.0f;
            if (amax != nullptr) amax[oy * ow + ox] = best_idx;
          }
        }
      });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& dy) {
  HSCONAS_CHECK_MSG(!cached_in_shape_.empty(),
                    "MaxPool2d::backward before forward");
  obs::OpScope prof([&] {
    return maxpool_op_info("maxpool.bwd", cached_in_shape_, kernel_, stride_,
                           pad_);
  });
  const long n = cached_in_shape_[0], c = cached_in_shape_[1];
  const long h = cached_in_shape_[2], w = cached_in_shape_[3];
  const long oh = dy.dim(2), ow = dy.dim(3);
  Tensor dx(cached_in_shape_);
  // amax entries are plane-local input indices, so the scatter for plane
  // (s, ch) only ever touches that plane's slab of dx.
  util::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n * c), static_cast<std::size_t>(oh * ow),
      [&](std::size_t t) {
        const long s = static_cast<long>(t) / c;
        const long ch = static_cast<long>(t) % c;
        const float* grad = dy.data() + ((s * c + ch) * oh * ow);
        float* out = dx.data() + ((s * c + ch) * h * w);
        const long* amax = argmax_.data() +
                           static_cast<std::size_t>((s * c + ch) * oh * ow);
        for (long i = 0; i < oh * ow; ++i) {
          if (amax[i] >= 0) out[amax[i]] += grad[i];
        }
      });
  return dx;
}

}  // namespace hsconas::nn
