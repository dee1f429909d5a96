#pragma once

#include <memory>
#include <vector>

#include "nn/choice_block.h"
#include "nn/conv2d.h"
#include "nn/mask.h"
#include "nn/module.h"

namespace hsconas::nn {

/// The K = 5 candidate operators of the HSCoNAS search space (§IV-B):
/// ShuffleNetV2 building blocks with kernel 3/5/7, the Xception-style
/// variant with three stacked depthwise 3×3 convolutions, and a
/// skip-connection. This matches the operator set popularized by
/// Single-Path-One-Shot NAS, which the paper's space description follows.
enum class BlockKind {
  kShuffleK3 = 0,
  kShuffleK5 = 1,
  kShuffleK7 = 2,
  kXception = 3,
  kSkip = 4,
};

constexpr int kNumBlockKinds = 5;

const char* block_kind_name(BlockKind kind);

/// Kernel size of the main depthwise convolution for a kind (3 for
/// xception/skip).
long block_kernel(BlockKind kind);

/// One searchable layer of the supernet.
///
/// stride 1 (in == out, even): channel-split into halves; identity on the
/// left half, the chosen operator's branch on the right; concat + channel
/// shuffle, run as one interleave (interleave_channels). stride 2: two
/// parallel branches (projection + main) on the full input, concat halves
/// the spatial size and sets the new width.
///
/// kSkip is Identity at stride 1; at stride 2 (where a pure identity cannot
/// change geometry) it lowers to the minimal projection branch, keeping
/// K = 5 choices at every layer so |A| = (K·|C|)^L matches the paper's
/// quoted 9.5e33.
///
/// Dynamic channel scaling: forward(x, c) runs the branch's mid channels
/// sliced to round(c · S) where S = max_mid_channels().
class ShuffleChoiceBlock : public ChoiceBlock {
 public:
  ShuffleChoiceBlock(BlockKind kind, long in_channels, long out_channels,
                     long stride, util::Rng& rng,
                     std::string display_name = "choice_block");

  void collect_params(std::vector<Parameter*>& out) override;
  void visit(const std::function<void(Module&)>& fn) override;
  std::string name() const override { return display_name_; }

  BlockKind kind() const { return kind_; }
  long in_channels() const override { return in_channels_; }
  long out_channels() const override { return out_channels_; }
  long stride() const override { return stride_; }

  /// Sˡ — the width being scaled by the dynamic channel factor (0 for
  /// skip ops, which have no searchable width).
  long max_mid_channels() const override { return mid_channels_; }

  tensor::Tensor backward(const tensor::Tensor& dy) override;

 protected:
  tensor::Tensor forward_at(const tensor::Tensor& x, long active) override;

 private:
  BlockKind kind_;
  long in_channels_, out_channels_, stride_, mid_channels_;
  std::string display_name_;

  SlicedBranch main_;                   // operator branch
  std::unique_ptr<Sequential> proj_;    // stride-2 projection branch

  bool pure_identity_ = false;  // skip @ stride 1
};

}  // namespace hsconas::nn
