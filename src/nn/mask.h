#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace hsconas::nn {

/// Channel masking implementing the paper's dynamic channel scaling
/// (§III-B): the binary vector Iˡ ∈ {0,1}^{Sˡ} keeps the first `active`
/// channels of an NCHW tensor and zeroes the rest. Applied to activations
/// in forward and to gradients in backward, it is exactly equivalent to
/// slicing the layer to its first `active` channels while keeping the
/// full-width shared weights resident ("scale-down-only" masking — the
/// supernet never has to be rebuilt or re-loaded). Zeroes `x` in place
/// and returns it, so a moved-in tensor is never copied; throws
/// InvalidArgument unless 1 <= active <= x.dim(1). `op` names the call in
/// the per-op profiler.
tensor::Tensor mask_channels(tensor::Tensor x, long active,
                             const char* op = "channel_mask");

/// The searchable part of a choice block: Sequential stages run in order
/// with mask_channels(·, active) between consecutive stages. Placement
/// matters: each mask sits *after* a stage's BatchNorm (and activation),
/// because BN's `beta` would otherwise re-introduce a nonzero constant on
/// channels whose inputs were masked upstream.
///
/// The width is an argument of every call, never a member, so one branch
/// may run forwards at different widths on several threads at once.
class MaskedBranch {
 public:
  /// Append an empty stage and return it for filling.
  Sequential& add_stage(std::string display_name);

  tensor::Tensor forward(const tensor::Tensor& x, long active);
  /// Backward through the stages' last train forward, masking the
  /// gradient at the width that forward ran at.
  tensor::Tensor backward(const tensor::Tensor& dy, long active);

  void collect_params(std::vector<Parameter*>& out);
  void visit(const std::function<void(Module&)>& fn);

 private:
  std::vector<std::unique_ptr<Sequential>> stages_;
};

/// Round a channel count by a scaling factor the way the paper does
/// (`5 × 0.5 ≈ 3`, i.e. round-half-up), clamped to at least 1.
long scaled_channels(long max_channels, double factor);

}  // namespace hsconas::nn
