#pragma once

#include <memory>

#include "nn/module.h"

namespace hsconas::nn {

/// Interface every searchable layer implements: a module whose internal
/// width can be scaled by the paper's dynamic channel factor. The supernet
/// and the search code only ever talk to this interface, which is what
/// makes the framework operator-family-agnostic.
///
/// The factor is an argument of each forward, never block state: a score
/// or eval forward writes no member, so one block may run forwards at
/// different factors on several threads at once. Backward needs no
/// factor: the layers of a width-sliced train forward keep tensors of the
/// width they ran at.
class ChoiceBlock : public Module {
 public:
  /// Forward at channel factor c ∈ (0, 1]: the block's mid channels are
  /// sliced to active_mid_channels(c) for this call (§III-B).
  tensor::Tensor forward(const tensor::Tensor& x, double factor);
  /// Forward at full width (c = 1).
  tensor::Tensor forward(const tensor::Tensor& x) override {
    return forward(x, 1.0);
  }
  /// Sˡ — the maximum searchable width (0 for widthless ops like skip).
  virtual long max_mid_channels() const = 0;
  /// round(c · Sˡ) (0 for widthless ops); throws InvalidArgument unless
  /// 0 < c <= 1.
  long active_mid_channels(double factor) const;

  virtual long in_channels() const = 0;
  virtual long out_channels() const = 0;
  virtual long stride() const = 0;

 protected:
  /// The block's arithmetic at `active` mid channels.
  virtual tensor::Tensor forward_at(const tensor::Tensor& x, long active) = 0;
};

/// Operator families the search space can draw from. Both expose K = 5
/// candidates per layer, so the paper's |A| arithmetic is unchanged.
///   kShuffleV2: ShuffleNetV2 blocks k3/k5/k7 + Xception variant + skip
///               (the paper's space, §IV-B);
///   kMbConv:    MobileNetV2-style inverted residuals e3k3/e6k3/e3k5/e6k5 +
///               skip (the ProxylessNAS/FBNet-style space), with the
///               channel factor scaling the expansion width.
enum class OpFamily { kShuffleV2 = 0, kMbConv = 1 };

int family_num_ops(OpFamily family);
const char* family_name(OpFamily family);
const char* family_op_name(OpFamily family, int op);

/// An MBConv family op's block shape: expansion ratio (<= 0: skip) and
/// depthwise kernel size.
struct MbConvShape {
  double expansion;
  long kernel;
};
MbConvShape mbconv_op_shape(int op);

/// True if `op` is the family's skip-connection operator.
bool family_op_is_skip(OpFamily family, int op);

/// Instantiate one candidate block.
std::unique_ptr<ChoiceBlock> make_family_block(OpFamily family, int op,
                                               long in_channels,
                                               long out_channels, long stride,
                                               util::Rng& rng,
                                               std::string display_name);

}  // namespace hsconas::nn
