#pragma once

#include <memory>
#include <vector>

#include "nn/choice_block.h"
#include "nn/conv2d.h"
#include "nn/mask.h"

namespace hsconas::nn {

/// The MBConv operator family (OpFamily::kMbConv): MobileNetV2-style
/// inverted residuals with searchable expansion width.
///
///   x ── pw expand (in→mid) ── dw k×k (s) ── pw project (mid→out) ──(+x)── y
///           BN ReLU             BN ReLU           BN
///
/// mid = round(c · e·in) where e is the op's nominal expansion ratio and c
/// is the paper's dynamic channel factor — slicing the expansion channels
/// is the exact analogue of slicing the shuffle branch's mid channels.
/// The residual add applies at stride 1 with in == out. The skip op is
/// Identity at stride 1 and a minimal dw+pw projection at stride 2
/// (mirroring the shuffle family's convention so K stays 5 everywhere).
class MbConvChoiceBlock : public ChoiceBlock {
 public:
  /// `expansion` <= 0 selects the skip operator; `kernel` is the depthwise
  /// kernel size for conv ops.
  MbConvChoiceBlock(double expansion, long kernel, long in_channels,
                    long out_channels, long stride, util::Rng& rng,
                    std::string display_name = "mbconv");

  void collect_params(std::vector<Parameter*>& out) override;
  void visit(const std::function<void(Module&)>& fn) override;
  std::string name() const override { return display_name_; }

  long max_mid_channels() const override { return mid_channels_; }
  long in_channels() const override { return in_channels_; }
  long out_channels() const override { return out_channels_; }
  long stride() const override { return stride_; }

  double expansion() const { return expansion_; }
  long kernel() const { return kernel_; }
  bool has_residual() const { return residual_; }

  tensor::Tensor backward(const tensor::Tensor& dy) override;

 protected:
  tensor::Tensor forward_at(const tensor::Tensor& x, long active) override;

 private:
  double expansion_;
  long kernel_;
  long in_channels_, out_channels_, stride_, mid_channels_;
  bool residual_ = false;
  bool pure_identity_ = false;
  std::string display_name_;

  SlicedBranch body_;
};

}  // namespace hsconas::nn
