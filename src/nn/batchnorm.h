#pragma once

#include "nn/module.h"

namespace hsconas::nn {

/// Per-channel batch normalization over NCHW activations.
///
/// Train and score modes normalize with batch statistics; eval mode uses
/// the running estimates. Only train mode updates those estimates (with
/// exponential momentum) and keeps x̂ and 1/σ for backward(), which
/// therefore always differentiates through the batch statistics. The
/// statistics come from tensor::batch_stats, which a score-mode
/// Sequential's conv→BN chains also use when they normalize in place
/// (tensor::batch_norm_act_inplace) instead of calling forward().
/// gamma/beta are trainable and excluded from weight decay.
///
/// Interaction with dynamic channel scaling: BN is strictly per-channel. A
/// width-sliced input (x.dim(1) < channels) normalizes its leading
/// channels with their own statistics, affine terms and running
/// estimates; the other channels' running estimates and gradients are
/// left untouched (see SlicedBranch).
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(long channels, double momentum = 0.1,
                       double eps = 1e-5,
                       std::string display_name = "bn");

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  std::string name() const override { return display_name_; }

  long channels() const { return channels_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const tensor::Tensor& running_mean() const { return running_mean_; }
  const tensor::Tensor& running_var() const { return running_var_; }

  /// Variance stabilizer, needed to fold eval-mode BN into a conv
  /// epilogue scale/shift (a kEvalFused Sequential does this).
  double eps() const { return eps_; }

  /// Reset running statistics to (0, 1) — used when re-calibrating BN after
  /// the search picks a subnet (standard one-shot NAS practice).
  void reset_running_stats();

 protected:
  void release_backward_state() override {
    cached_xhat_ = tensor::Tensor();
    cached_inv_std_.clear();
  }

 private:
  long channels_;
  double momentum_, eps_;
  std::string display_name_;
  Parameter gamma_, beta_;
  tensor::Tensor running_mean_, running_var_;

  // Forward cache for backward (train mode only).
  tensor::Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

}  // namespace hsconas::nn
