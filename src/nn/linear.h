#pragma once

#include "nn/module.h"
#include "nn/quantize.h"

namespace hsconas::nn {

/// Fully connected layer over (N, in_features) inputs.
class Linear : public Module {
 public:
  Linear(long in_features, long out_features, util::Rng& rng,
         std::string display_name = "linear");

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  std::string name() const override { return display_name_; }

  long in_features() const { return in_features_; }
  long out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  /// Int8 PTQ state: observed while armed by calibration, consumed by
  /// the quantized eval forward once ready.
  QuantState* quant_state() override { return &quant_; }

 protected:
  void release_backward_state() override { cached_input_ = tensor::Tensor(); }

 private:
  /// Int8 eval body: W (int8, out×in) times the batch's u8 codes read as
  /// a 1×1 conv view, the bias and dequantization folded into the requant
  /// epilogue, written straight into (N, out). Requires quant_.ready.
  tensor::Tensor forward_quant(const tensor::Tensor& x);

  long in_features_, out_features_;
  std::string display_name_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  QuantState quant_;
  tensor::Tensor cached_input_;
};

}  // namespace hsconas::nn
