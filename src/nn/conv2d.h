#pragma once

#include "nn/module.h"
#include "nn/quantize.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace hsconas::nn {

/// 2-D convolution with square kernels, symmetric padding and channel
/// groups (groups == in_channels == out_channels gives depthwise).
///
/// Weights are OIHW with I = in_channels / groups. The forward runs one
/// implicit GEMM per group over the whole batch (tensor::ConvInput: the
/// GEMM packs conv windows straight from the input); a depthwise conv
/// instead runs tensor::depthwise_f32 (or depthwise_i8 once calibrated)
/// per channel over every sample at once. The backward is im2col + GEMM;
/// gradients for weights, bias and input are exact.
///
/// Width slicing (dynamic channel scaling, §III-B): a call runs at the
/// input's width x.dim(1) <= in_channels and produces the leading
/// `out_channels` <= out_channels() output channels, reading only the
/// leading window of the shared weights. A depthwise conv always runs at
/// its input's width; any other conv runs sliced only with groups == 1.
/// Backward takes its widths from the cached input and dy and writes
/// gradients into the active window only.
class Conv2d : public Module {
 public:
  /// Kaiming-normal weight init (fan_in, ReLU gain); zero bias.
  Conv2d(long in_channels, long out_channels, long kernel, long stride,
         long pad, long groups, bool bias, util::Rng& rng,
         std::string display_name = "conv2d");

  /// Forward producing every output channel.
  tensor::Tensor forward(const tensor::Tensor& x) override {
    return forward(x, 0);
  }
  /// Forward producing the leading `out_channels` output channels (0: all;
  /// ignored by a depthwise conv). Throws InvalidArgument on an input the
  /// layer cannot run.
  tensor::Tensor forward(const tensor::Tensor& x, long out_channels);
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  std::string name() const override { return display_name_; }

  /// Inference-only fused forward: y = act(scale[c] * conv_raw + shift[c])
  /// per output channel, applied inside the GEMM's C-writeback or the
  /// depthwise kernel's output writeback (one memory pass for conv + bias
  /// + BN + activation). `scale`/`shift` have one entry per produced
  /// channel (widths(x, out_channels).cout) and must already fold the conv
  /// bias and any BatchNorm terms — this layer's own bias_ is intentionally
  /// ignored (a kEvalFused Sequential folds its conv→BN runs this way).
  /// Null scale means 1, null shift means 0. Keeps nothing for backward():
  /// call it in an eval mode, where set_mode() has released the layer's
  /// backward state, so backward() after it fails its "before forward"
  /// check.
  tensor::Tensor forward_fused(const tensor::Tensor& x, const float* scale,
                               const float* shift, tensor::EpilogueAct act,
                               long out_channels = 0);

  /// The channel counts and group count a call on `x` producing
  /// `out_channels` (0: all) runs at; not `valid` for a shape the layer
  /// cannot run.
  struct Widths {
    long cin, cout, groups;
    bool valid;
  };
  Widths widths(const tensor::Tensor& x, long out_channels) const;

  long in_channels() const { return in_channels_; }
  long out_channels() const { return out_channels_; }
  long kernel() const { return kernel_; }
  long stride() const { return stride_; }
  long pad() const { return pad_; }
  long groups() const { return groups_; }

  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

  /// Int8 PTQ state: observed while armed by calibration, consumed by
  /// the quantized eval forward once ready.
  QuantState* quant_state() override { return &quant_; }

  /// Analytic multiply-accumulate count for one sample at the given input
  /// spatial size (used to cross-check the core library's FLOPs counters).
  long macs(long in_h, long in_w) const;

 protected:
  void release_backward_state() override { cached_input_ = tensor::Tensor(); }

 private:
  /// (in_channels / groups) · kernel²: the length of a weight row, and so
  /// the row stride of the weights' leading window.
  long weight_row() const {
    return in_channels_ / groups_ * kernel_ * kernel_;
  }

  /// Shared forward body. `ep`, when non-null, spans the produced
  /// channels (per-group slices are taken internally) and is applied
  /// during the GEMM writeback / depthwise writeback (row c for channel
  /// c). Does not touch cached_input_.
  tensor::Tensor forward_impl(const tensor::Tensor& x, long out_channels,
                              const tensor::GemmEpilogue* ep);

  /// Int8 eval-mode body: same contract as forward_impl (`ep` already
  /// folds bias/BN), but computes via uint8 activation quantization + the
  /// int8 GEMM, dequantizing inside the requant epilogue. Requires
  /// quant_.ready.
  tensor::Tensor forward_quant_impl(const tensor::Tensor& x, const Widths& cw,
                                    const tensor::GemmEpilogue* ep);

  long in_channels_, out_channels_, kernel_, stride_, pad_, groups_;
  bool has_bias_;
  std::string display_name_;
  Parameter weight_;
  Parameter bias_;
  QuantState quant_;
  tensor::Tensor cached_input_;
};

}  // namespace hsconas::nn
