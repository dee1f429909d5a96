#include "nn/activation.h"

#include "nn/op_profile.h"
#include "tensor/gemm.h"

namespace hsconas::nn {

using tensor::Tensor;

// Both activations evaluate through tensor::epilogue_apply — the same
// inline scalar formula the fused GEMM writeback uses — so the composed
// modules and the fused conv epilogue can never drift apart.

Tensor ReLU::forward(const Tensor& x) {
  obs::OpScope prof(
      [&] { return detail::elementwise_op_info("relu", "eltwise", x, 1.0); });
  // Every element of y (and of the mask) is written below.
  Tensor y = Tensor::for_overwrite(x.shape());
  const long count = x.numel();
  const float* in = x.data();
  float* out = y.data();
  // The trip count stays in a local: with numel() in the loop condition
  // the compiler cannot count the trips, leaves the loop scalar, and its
  // branch mispredicts on mixed-sign input.
  if (!keeps_backward_state()) {
    for (long i = 0; i < count; ++i) {
      out[i] = tensor::epilogue_apply(tensor::EpilogueAct::kReLU, in[i]);
    }
    return y;
  }
  mask_ = Tensor::for_overwrite(x.shape());
  note_backward_state(mask_);
  float* m = mask_.data();
  // relu(v) > 0 exactly when v > 0 (NaN and -0 map to +0), so the mask is
  // a compare of the output: two selects per element, which vectorize.
  for (long i = 0; i < count; ++i) {
    const float r = tensor::epilogue_apply(tensor::EpilogueAct::kReLU, in[i]);
    out[i] = r;
    m[i] = r > 0.0f ? 1.0f : 0.0f;
  }
  return y;
}

Tensor ReLU::backward(const Tensor& dy) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("relu.bwd", "eltwise", dy, 1.0);
  });
  HSCONAS_CHECK_MSG(!mask_.empty(), "ReLU::backward before forward");
  dy.check_same_shape(mask_, "ReLU::backward");
  Tensor dx = dy;
  dx.hadamard_(mask_);
  return dx;
}

Tensor HSwish::forward(const Tensor& x) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("hswish", "eltwise", x, 4.0);
  });
  keep_for_backward(cached_input_, x);
  Tensor y = Tensor::for_overwrite(x.shape());
  const float* in = x.data();
  float* out = y.data();
  const long count = x.numel();
  for (long i = 0; i < count; ++i) {
    out[i] = tensor::epilogue_apply(tensor::EpilogueAct::kHSwish, in[i]);
  }
  return y;
}

Tensor HSwish::backward(const Tensor& dy) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("hswish.bwd", "eltwise", dy, 4.0);
  });
  HSCONAS_CHECK_MSG(!cached_input_.empty(),
                    "HSwish::backward before forward");
  dy.check_same_shape(cached_input_, "HSwish::backward");
  Tensor dx = Tensor::for_overwrite(dy.shape());
  const float* in = cached_input_.data();
  const float* g = dy.data();
  float* out = dx.data();
  for (long i = 0; i < dy.numel(); ++i) {
    const float v = in[i];
    float d;
    if (v <= -3.0f) d = 0.0f;
    else if (v >= 3.0f) d = 1.0f;
    else d = (2.0f * v + 3.0f) / 6.0f;
    out[i] = g[i] * d;
  }
  return dx;
}

}  // namespace hsconas::nn
