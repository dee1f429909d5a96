#pragma once

#include "nn/module.h"

namespace hsconas::nn {

/// Elementwise max(0, x).
class ReLU : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  std::string name() const override { return "relu"; }

 protected:
  void release_backward_state() override { mask_ = tensor::Tensor(); }

 private:
  tensor::Tensor mask_;  // 1 where x > 0
};

/// Hard-swish: x * relu6(x + 3) / 6 (MobileNetV3's activation; available for
/// users extending the operator set).
class HSwish : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  std::string name() const override { return "hswish"; }

 protected:
  void release_backward_state() override { cached_input_ = tensor::Tensor(); }

 private:
  tensor::Tensor cached_input_;
};

}  // namespace hsconas::nn
