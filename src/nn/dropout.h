#pragma once

#include "nn/module.h"
#include "util/rng.h"

namespace hsconas::nn {

/// Inverted dropout: during training each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p), so score and eval
/// modes are the identity. MobileNet-style classifiers conventionally apply dropout
/// before the final linear layer; the supernet head can enable it via
/// SearchSpaceConfig-independent construction.
class Dropout : public Module {
 public:
  /// p in [0, 1); seed fixes the mask stream for reproducibility.
  explicit Dropout(double p, std::uint64_t seed = 0xD20Full);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  std::string name() const override { return "dropout"; }

  double p() const { return p_; }

 protected:
  void release_backward_state() override { mask_ = tensor::Tensor(); }

 private:
  double p_;
  util::Rng rng_;
  tensor::Tensor mask_;  // scaled keep-mask from the last training forward
};

}  // namespace hsconas::nn
