#pragma once

#include "nn/module.h"

namespace hsconas::nn {

/// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  std::string name() const override { return "gap"; }

 protected:
  void release_backward_state() override { cached_shape_.clear(); }

 private:
  tensor::ShapeVec cached_shape_;
};

}  // namespace hsconas::nn
