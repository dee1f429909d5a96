#include "nn/dropout.h"

namespace hsconas::nn {

using tensor::Tensor;

Dropout::Dropout(double p, std::uint64_t seed) : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw InvalidArgument("Dropout: p must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& x) {
  if (mode() != Mode::kTrain || p_ == 0.0) return x;  // identity
  mask_ = Tensor(x.shape());
  note_backward_state(mask_);
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  for (long i = 0; i < mask_.numel(); ++i) {
    mask_.flat()[static_cast<std::size_t>(i)] =
        rng_.bernoulli(p_) ? 0.0f : scale;
  }
  Tensor y = x;
  y.hadamard_(mask_);
  return y;
}

Tensor Dropout::backward(const Tensor& dy) {
  if (mask_.empty()) return dy;  // eval or p == 0 forward
  Tensor dx = dy;
  dx.hadamard_(mask_);
  return dx;
}

}  // namespace hsconas::nn
