// Tests for the ShuffleChoiceBlock operator set (the K = 5 candidates).

#include "nn/blocks.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "tests/nn/grad_check.h"
#include "util/error.h"

namespace hsconas::nn {
namespace {

using tensor::Tensor;
using testutil::grad_check;

Tensor block_input(long channels, long size, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform({2, channels, size, size}, -1.0f, 1.0f, rng);
}

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: `zero` fills the gap after `kind`, which would
// otherwise print leftover stack bytes and rename the test on every run.
struct BlockCase {
  BlockCase(BlockKind k, long in, long out, long s)
      : kind(k), in_ch(in), out_ch(out), stride(s) {}
  BlockKind kind;
  std::int32_t zero = 0;
  long in_ch, out_ch, stride;
};
static_assert(std::has_unique_object_representations_v<BlockCase>);

class BlockShapes : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockShapes, ForwardShapeAndBackwardShape) {
  const BlockCase bc = GetParam();
  util::Rng rng(1);
  ShuffleChoiceBlock block(bc.kind, bc.in_ch, bc.out_ch, bc.stride, rng);
  const Tensor x = block_input(bc.in_ch, 8, 2);
  const Tensor y = block.forward(x);
  const long expect_size = bc.stride == 2 ? 4 : 8;
  EXPECT_EQ(y.shape(), (std::vector<long>{2, bc.out_ch, expect_size,
                                          expect_size}));
  const Tensor dx = block.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsBothStrides, BlockShapes,
    ::testing::Values(
        BlockCase{BlockKind::kShuffleK3, 8, 8, 1},
        BlockCase{BlockKind::kShuffleK5, 8, 8, 1},
        BlockCase{BlockKind::kShuffleK7, 8, 8, 1},
        BlockCase{BlockKind::kXception, 8, 8, 1},
        BlockCase{BlockKind::kSkip, 8, 8, 1},
        BlockCase{BlockKind::kShuffleK3, 8, 16, 2},
        BlockCase{BlockKind::kShuffleK5, 8, 16, 2},
        BlockCase{BlockKind::kShuffleK7, 8, 16, 2},
        BlockCase{BlockKind::kXception, 8, 16, 2},
        BlockCase{BlockKind::kSkip, 8, 16, 2}));

class BlockGrad : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockGrad, MatchesFiniteDifferences) {
  const BlockCase bc = GetParam();
  util::Rng rng(3);
  ShuffleChoiceBlock block(bc.kind, bc.in_ch, bc.out_ch, bc.stride, rng);
  // Every primitive layer's backward is finite-difference-verified exactly
  // in layers_test.cpp; this test targets the block's *routing* (branches,
  // split/concat, shuffle, masks). BN's zero-mean output parks many
  // activations on the ReLU kink, where central differences are wrong at
  // any step size — so bias gamma/beta to move activations ~5σ off the
  // kink, leaving the full backward path intact.
  std::vector<Parameter*> params;
  block.collect_params(params);
  for (Parameter* p : params) {
    if (p->name.find("gamma") != std::string::npos) p->value.fill(0.2f);
    if (p->name.find("beta") != std::string::npos) p->value.fill(1.0f);
  }
  const auto result =
      grad_check(block, block_input(bc.in_ch, 6, 4), 11, /*probes=*/24);
  // Routing bugs (a dropped or double-counted branch) produce O(1) errors;
  // fp32 round-off through 6+-layer chains with small (gamma = 0.2)
  // gradients accounts for up to ~0.1 on individual coordinates.
  EXPECT_LT(result.max_input_rel_err, 0.12);
  EXPECT_LT(result.max_param_rel_err, 0.12);
  // The kink-avoidance bias must have left the probes usable.
  EXPECT_LT(result.probes_skipped, result.probes_total / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockGrad,
    ::testing::Values(BlockCase{BlockKind::kShuffleK3, 4, 4, 1},
                      BlockCase{BlockKind::kShuffleK5, 4, 4, 1},
                      BlockCase{BlockKind::kXception, 4, 4, 1},
                      BlockCase{BlockKind::kShuffleK3, 4, 8, 2},
                      BlockCase{BlockKind::kXception, 4, 8, 2},
                      BlockCase{BlockKind::kSkip, 4, 8, 2}));

TEST(ShuffleChoiceBlock, SkipStride1IsExactIdentity) {
  util::Rng rng(1);
  ShuffleChoiceBlock skip(BlockKind::kSkip, 8, 8, 1, rng);
  const Tensor x = block_input(8, 5, 9);
  const Tensor y = skip.forward(x);
  for (long i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y.flat()[static_cast<std::size_t>(i)],
              x.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(skip.param_count(), 0);
  EXPECT_EQ(skip.max_mid_channels(), 0);
}

TEST(ShuffleChoiceBlock, ChannelFactorMasksMidChannels) {
  util::Rng rng(2);
  ShuffleChoiceBlock block(BlockKind::kShuffleK3, 16, 16, 1, rng);
  EXPECT_EQ(block.max_mid_channels(), 8);
  EXPECT_EQ(block.active_mid_channels(0.5), 4);
  EXPECT_EQ(block.active_mid_channels(0.1), 1);
  EXPECT_EQ(block.active_mid_channels(1.0), 8);
}

TEST(ShuffleChoiceBlock, NarrowerFactorChangesOutput) {
  util::Rng rng(3);
  ShuffleChoiceBlock block(BlockKind::kShuffleK3, 8, 8, 1, rng);
  const Tensor x = block_input(8, 6, 10);
  const Tensor full = block.forward(x, 1.0);
  const Tensor half = block.forward(x, 0.5);
  double diff = 0.0;
  for (long i = 0; i < full.numel(); ++i) {
    diff += std::abs(full.flat()[static_cast<std::size_t>(i)] -
                     half.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(diff, 1e-3);
  // The factor is per call: a full-width forward after the narrow one is
  // the first full-width forward again, bit for bit.
  const Tensor again = block.forward(x);
  ASSERT_EQ(again.shape(), full.shape());
  for (long i = 0; i < full.numel(); ++i) {
    EXPECT_EQ(again.flat()[static_cast<std::size_t>(i)],
              full.flat()[static_cast<std::size_t>(i)]);
  }
}

TEST(ShuffleChoiceBlock, MaskingEquivalentToZeroedWeights) {
  // Scaling down must be exactly "the masked channels do not exist":
  // gradients to masked mid-channels are zero.
  util::Rng rng(4);
  ShuffleChoiceBlock block(BlockKind::kShuffleK3, 8, 8, 1, rng);
  const Tensor x = block_input(8, 6, 11);
  const Tensor y = block.forward(x, 0.5);  // 2 of 4 mid channels active
  block.backward(Tensor::ones(y.shape()));

  std::vector<Parameter*> params;
  block.collect_params(params);
  // The depthwise conv inside the branch has one 3x3 filter per mid
  // channel; filters of masked channels must receive zero gradient.
  for (Parameter* p : params) {
    if (p->name.find("dw") != std::string::npos &&
        p->value.dim(0) == 4) {  // mid = 4 max channels
      const long per_filter = p->value.numel() / 4;
      for (long c = 2; c < 4; ++c) {  // masked half
        for (long i = 0; i < per_filter; ++i) {
          EXPECT_EQ(p->grad.flat()[static_cast<std::size_t>(
                        c * per_filter + i)],
                    0.0f)
              << p->name;
        }
      }
    }
  }
}

TEST(ShuffleChoiceBlock, FactorOutOfRangeThrows) {
  util::Rng rng(5);
  ShuffleChoiceBlock block(BlockKind::kShuffleK3, 8, 8, 1, rng);
  const Tensor x = block_input(8, 6, 12);
  EXPECT_THROW(block.forward(x, 0.0), InvalidArgument);
  EXPECT_THROW(block.forward(x, 1.5), InvalidArgument);
  EXPECT_THROW(block.active_mid_channels(0.0), InvalidArgument);
}

TEST(ShuffleChoiceBlock, ConstructionValidation) {
  util::Rng rng(6);
  // stride-1 requires in == out
  EXPECT_THROW(ShuffleChoiceBlock(BlockKind::kShuffleK3, 8, 16, 1, rng),
               InvalidArgument);
  // odd channels
  EXPECT_THROW(ShuffleChoiceBlock(BlockKind::kShuffleK3, 7, 7, 1, rng),
               InvalidArgument);
  // bad stride
  EXPECT_THROW(ShuffleChoiceBlock(BlockKind::kShuffleK3, 8, 8, 3, rng),
               InvalidArgument);
}

TEST(ShuffleChoiceBlock, KernelTable) {
  EXPECT_EQ(block_kernel(BlockKind::kShuffleK3), 3);
  EXPECT_EQ(block_kernel(BlockKind::kShuffleK5), 5);
  EXPECT_EQ(block_kernel(BlockKind::kShuffleK7), 7);
  EXPECT_EQ(block_kernel(BlockKind::kXception), 3);
  EXPECT_EQ(std::string(block_kind_name(BlockKind::kXception)), "xception");
}

TEST(ShuffleChoiceBlock, SkipStride2HasProjection) {
  util::Rng rng(7);
  ShuffleChoiceBlock skip(BlockKind::kSkip, 8, 16, 2, rng);
  const Tensor y = skip.forward(block_input(8, 8, 12));
  EXPECT_EQ(y.shape(), (std::vector<long>{2, 16, 4, 4}));
  EXPECT_GT(skip.param_count(), 0);  // dw + pw projection weights
}

}  // namespace
}  // namespace hsconas::nn
