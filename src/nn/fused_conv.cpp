#include "nn/fused_conv.h"

#include <cmath>

#include "obs/metrics.h"
#include "tensor/workspace.h"

namespace hsconas::nn {

tensor::Tensor fused_conv_bn_act(Conv2d& conv, BatchNorm2d& bn,
                                 tensor::EpilogueAct act,
                                 const tensor::Tensor& x) {
  static obs::Counter& calls = obs::counter("hsconas.nn.fused_conv_calls");
  const long c = conv.out_channels();
  if (bn.channels() != c) {
    throw InvalidArgument("fused_conv_bn_act: conv out_channels " +
                          std::to_string(c) + " != bn channels " +
                          std::to_string(bn.channels()));
  }
  calls.add();

  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Scratch fold = ws.take(static_cast<std::size_t>(2 * c));
  float* scale = fold.data();
  float* shift = fold.data() + c;
  const float* gamma = bn.gamma().value.data();
  const float* beta = bn.beta().value.data();
  const float* mean = bn.running_mean().data();
  const float* var = bn.running_var().data();
  const Parameter* bias = conv.bias();
  for (long i = 0; i < c; ++i) {
    // Same double-precision inv_std as BatchNorm2d's eval forward, so the
    // gamma==1 / mean==0 / bias-free fold is bit-identical to composing
    // the modules.
    const float inv_std = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(var[i]) + bn.eps()));
    const float s = gamma[i] * inv_std;
    const float b0 = bias != nullptr ? bias->value.data()[i] : 0.0f;
    scale[i] = s;
    shift[i] = beta[i] + s * (b0 - mean[i]);
  }
  return conv.forward_fused(x, scale, shift, act);
}

}  // namespace hsconas::nn
