#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace hsconas::nn {

/// The searchable part of a choice block, run at the paper's dynamic
/// channel width (§III-B): Sequential stages run in order, and the
/// channels between consecutive stages — the block's mid width Sˡ — are
/// sliced to their first `active` ones. Every stage but the last produces
/// `active` channels (its non-depthwise convs compute only those output
/// rows of the shared full-width weights); every stage after the first
/// consumes them (its convs read only the leading window of their weights,
/// its depthwise convs and BatchNorms run `active` channels). The weights
/// stay resident at full width, so the supernet is never rebuilt or
/// re-loaded, and a factor-0.1 candidate does a tenth of the mid-width work
/// of a factor-1.0 one — what the latency LUT prices (core/lowering.cpp).
///
/// The result is what masking the mid channels to zero at full width
/// computed, bit for bit: a dropped product is w · (+0), and a sum that
/// starts from +0 and drops trailing exact zeros keeps its value. Backward
/// writes gradients into the active slices only; the rest stay as they
/// were (+0 after zero_grad). Inactive channels' BatchNorm running
/// estimates are not updated by a train forward.
///
/// The width is an argument of every call, never a member, so one branch
/// may run forwards at different widths on several threads at once.
class SlicedBranch {
 public:
  /// Append an empty stage and return it for filling.
  Sequential& add_stage(std::string display_name);

  /// Forward at `active` mid channels (ignored by a one-stage branch).
  tensor::Tensor forward(const tensor::Tensor& x, long active);
  /// Backward through the stages' last train forward, at the widths that
  /// forward ran at.
  tensor::Tensor backward(const tensor::Tensor& dy);

  void collect_params(std::vector<Parameter*>& out);
  void visit(const std::function<void(Module&)>& fn);

 private:
  std::vector<std::unique_ptr<Sequential>> stages_;
};

/// Round a channel count by a scaling factor the way the paper does
/// (`5 × 0.5 ≈ 3`, i.e. round-half-up), clamped to at least 1.
long scaled_channels(long max_channels, double factor);

}  // namespace hsconas::nn
