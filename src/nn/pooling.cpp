#include "nn/pooling.h"

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

}  // namespace

// Pooling parallelizes over samples (forward) or (sample, channel) planes
// (backward): every task reads and writes disjoint memory and the
// within-plane loops are serial, so outputs are identical at any thread
// count. Each loop passes its per-task work, so a small tensor runs inline
// (util::kParallelWorkFloor).

Tensor GlobalAvgPool::forward(const Tensor& x) {
  obs::OpScope prof([&] { return gap_op_info("gap", x.shape()); });
  if (x.ndim() != 4) {
    throw InvalidArgument("GlobalAvgPool: expected NCHW, got " +
                          x.shape_str());
  }
  if (keeps_backward_state()) cached_shape_ = x.shape();
  const long n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(spatial);
  // Every element is written below: one row (sample, channel) at a time,
  // each summed in order in a double.
  Tensor y = Tensor::for_overwrite({n, c});
  util::ThreadPool::global().parallel_for(
      static_cast<std::size_t>(n), static_cast<std::size_t>(c * spatial),
      [&](std::size_t s) {
        const long rows = static_cast<long>(s) * c;
        const float* in = x.data() + rows * spatial;
        float* out = y.data() + rows;
        for (long ch = 0; ch < c; ++ch, in += spatial) {
          double acc = 0.0;
          for (long i = 0; i < spatial; ++i) acc += in[i];
          out[ch] = static_cast<float>(acc / count);
        }
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
  Tensor dx = Tensor::for_overwrite(cached_shape_);
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

}  // namespace hsconas::nn
