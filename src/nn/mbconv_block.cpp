#include "nn/mbconv_block.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"

namespace hsconas::nn {

using tensor::Tensor;

MbConvChoiceBlock::MbConvChoiceBlock(double expansion, long kernel,
                                     long in_channels, long out_channels,
                                     long stride, util::Rng& rng,
                                     std::string display_name)
    : expansion_(expansion),
      kernel_(kernel),
      in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      mid_channels_(0),
      display_name_(std::move(display_name)) {
  if (stride != 1 && stride != 2) {
    throw InvalidArgument("MbConvChoiceBlock: stride must be 1 or 2");
  }
  if (stride == 1 && in_channels != out_channels) {
    throw InvalidArgument(
        "MbConvChoiceBlock: stride-1 blocks require in == out channels");
  }

  const bool is_skip = expansion <= 0.0;
  int idx = 0;
  const auto tag = [&](const char* what) {
    return display_name_ + "." + what + std::to_string(idx++);
  };

  if (is_skip) {
    if (stride == 1) {
      pure_identity_ = true;
      return;
    }
    // Reduction skip: minimal projection, as in the shuffle family.
    Sequential& proj = body_.add_stage(display_name_ + ".skip_proj");
    proj.add(std::make_unique<Conv2d>(in_channels, in_channels, 3, 2, 1,
                                      in_channels, false, rng, tag("dw")));
    proj.add(std::make_unique<BatchNorm2d>(in_channels, 0.1, 1e-5,
                                           tag("bn")));
    proj.add(std::make_unique<Conv2d>(in_channels, out_channels, 1, 1, 0, 1,
                                      false, rng, tag("pw")));
    proj.add(std::make_unique<BatchNorm2d>(out_channels, 0.1, 1e-5,
                                           tag("bn")));
    proj.add(std::make_unique<ReLU>());
    return;
  }

  mid_channels_ = std::max<long>(
      1, static_cast<long>(std::llround(expansion *
                                        static_cast<double>(in_channels))));
  residual_ = (stride == 1 && in_channels == out_channels);

  // Expand; the mid width is sliced after each of the first two stages.
  Sequential& expand = body_.add_stage(display_name_ + ".expand");
  expand.add(std::make_unique<Conv2d>(in_channels, mid_channels_, 1, 1, 0, 1,
                                      false, rng, tag("pw")));
  expand.add(std::make_unique<BatchNorm2d>(mid_channels_, 0.1, 1e-5,
                                           tag("bn")));
  expand.add(std::make_unique<ReLU>());
  // Depthwise.
  Sequential& depthwise = body_.add_stage(display_name_ + ".depthwise");
  depthwise.add(std::make_unique<Conv2d>(mid_channels_, mid_channels_, kernel,
                                         stride, kernel / 2, mid_channels_,
                                         false, rng, tag("dw")));
  depthwise.add(std::make_unique<BatchNorm2d>(mid_channels_, 0.1, 1e-5,
                                              tag("bn")));
  depthwise.add(std::make_unique<ReLU>());
  // Project (linear bottleneck: no activation, per MobileNetV2).
  Sequential& project = body_.add_stage(display_name_ + ".project");
  project.add(std::make_unique<Conv2d>(mid_channels_, out_channels, 1, 1, 0,
                                       1, false, rng, tag("pw")));
  project.add(std::make_unique<BatchNorm2d>(out_channels, 0.1, 1e-5,
                                            tag("bn")));
}

Tensor MbConvChoiceBlock::forward_at(const Tensor& x, long active) {
  if (pure_identity_) return x;
  Tensor y = body_.forward(x, active);
  if (residual_) y.add_(x);
  return y;
}

Tensor MbConvChoiceBlock::backward(const Tensor& dy) {
  if (pure_identity_) return dy;
  Tensor dx = body_.backward(dy);
  if (residual_) dx.add_(dy);  // the identity path's gradient
  return dx;
}

void MbConvChoiceBlock::collect_params(std::vector<Parameter*>& out) {
  body_.collect_params(out);
}

void MbConvChoiceBlock::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  body_.visit(fn);
}

}  // namespace hsconas::nn
