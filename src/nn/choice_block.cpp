#include "nn/choice_block.h"

#include <iterator>

#include "nn/blocks.h"
#include "nn/mask.h"
#include "nn/mbconv_block.h"
#include "util/error.h"

namespace hsconas::nn {

namespace {

/// MBConv family op table: (expansion, kernel); expansion <= 0 == skip.
struct MbConvOp {
  MbConvShape shape;
  const char* name;
};

constexpr MbConvOp kMbConvOps[] = {
    {{3.0, 3}, "mb_e3k3"}, {{6.0, 3}, "mb_e6k3"}, {{3.0, 5}, "mb_e3k5"},
    {{6.0, 5}, "mb_e6k5"}, {{0.0, 3}, "skip"},
};

}  // namespace

tensor::Tensor ChoiceBlock::forward(const tensor::Tensor& x, double factor) {
  return forward_at(x, active_mid_channels(factor));
}

long ChoiceBlock::active_mid_channels(double factor) const {
  if (!(factor > 0.0 && factor <= 1.0)) {
    throw InvalidArgument("ChoiceBlock: channel factor must be in (0, 1]");
  }
  const long max_mid = max_mid_channels();
  return max_mid == 0 ? 0 : scaled_channels(max_mid, factor);
}

int family_num_ops(OpFamily family) {
  switch (family) {
    case OpFamily::kShuffleV2: return kNumBlockKinds;
    case OpFamily::kMbConv:
      return static_cast<int>(std::size(kMbConvOps));
  }
  return 0;
}

const char* family_name(OpFamily family) {
  switch (family) {
    case OpFamily::kShuffleV2: return "shufflev2";
    case OpFamily::kMbConv: return "mbconv";
  }
  return "?";
}

const char* family_op_name(OpFamily family, int op) {
  HSCONAS_CHECK_MSG(op >= 0 && op < family_num_ops(family),
                    "family_op_name: op out of range");
  switch (family) {
    case OpFamily::kShuffleV2:
      return block_kind_name(static_cast<BlockKind>(op));
    case OpFamily::kMbConv:
      return kMbConvOps[static_cast<std::size_t>(op)].name;
  }
  return "?";
}

MbConvShape mbconv_op_shape(int op) {
  HSCONAS_CHECK_MSG(op >= 0 && op < family_num_ops(OpFamily::kMbConv),
                    "mbconv_op_shape: op out of range");
  return kMbConvOps[static_cast<std::size_t>(op)].shape;
}

bool family_op_is_skip(OpFamily family, int op) {
  switch (family) {
    case OpFamily::kShuffleV2:
      return static_cast<BlockKind>(op) == BlockKind::kSkip;
    case OpFamily::kMbConv:
      return mbconv_op_shape(op).expansion <= 0.0;
  }
  return false;
}

std::unique_ptr<ChoiceBlock> make_family_block(OpFamily family, int op,
                                               long in_channels,
                                               long out_channels, long stride,
                                               util::Rng& rng,
                                               std::string display_name) {
  HSCONAS_CHECK_MSG(op >= 0 && op < family_num_ops(family),
                    "make_family_block: op out of range");
  switch (family) {
    case OpFamily::kShuffleV2:
      return std::make_unique<ShuffleChoiceBlock>(
          static_cast<BlockKind>(op), in_channels, out_channels, stride, rng,
          std::move(display_name));
    case OpFamily::kMbConv: {
      const MbConvShape shape = mbconv_op_shape(op);
      return std::make_unique<MbConvChoiceBlock>(
          shape.expansion, shape.kernel, in_channels, out_channels, stride,
          rng, std::move(display_name));
    }
  }
  throw InvalidArgument("make_family_block: unknown family");
}

}  // namespace hsconas::nn
