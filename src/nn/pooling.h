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

/// Max pooling with square window/stride and symmetric padding
/// (used by the ShuffleNetV2 stem: 3×3, stride 2, pad 1).
class MaxPool2d : public Module {
 public:
  MaxPool2d(long kernel, long stride, long pad);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  std::string name() const override { return "maxpool"; }

 protected:
  void release_backward_state() override {
    cached_in_shape_.clear();
    argmax_.clear();
  }

 private:
  long kernel_, stride_, pad_;
  tensor::ShapeVec cached_in_shape_;
  std::vector<long> argmax_;  // flat input index per output element
};

}  // namespace hsconas::nn
