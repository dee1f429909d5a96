// Tests for the MBConv operator family (OpFamily::kMbConv).

#include "nn/mbconv_block.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "nn/blocks.h"
#include "nn/choice_block.h"
#include "tests/nn/grad_check.h"
#include "util/error.h"

namespace hsconas::nn {
namespace {

using tensor::Tensor;

Tensor block_input(long channels, long size, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::uniform({2, channels, size, size}, -1.0f, 1.0f, rng);
}

TEST(FamilyTable, MbConvOpsAndNames) {
  EXPECT_EQ(family_num_ops(OpFamily::kMbConv), 5);
  EXPECT_STREQ(family_op_name(OpFamily::kMbConv, 0), "mb_e3k3");
  EXPECT_STREQ(family_op_name(OpFamily::kMbConv, 3), "mb_e6k5");
  EXPECT_STREQ(family_op_name(OpFamily::kMbConv, 4), "skip");
  EXPECT_TRUE(family_op_is_skip(OpFamily::kMbConv, 4));
  EXPECT_FALSE(family_op_is_skip(OpFamily::kMbConv, 1));
  EXPECT_STREQ(family_name(OpFamily::kMbConv), "mbconv");
}

TEST(FamilyTable, ShuffleFamilyUnchanged) {
  EXPECT_EQ(family_num_ops(OpFamily::kShuffleV2), 5);
  EXPECT_STREQ(family_op_name(OpFamily::kShuffleV2, 0), "shuffle_k3");
  EXPECT_TRUE(family_op_is_skip(OpFamily::kShuffleV2, 4));
}

TEST(FamilyFactory, ProducesBothFamilies) {
  util::Rng rng(1);
  const auto shuffle = make_family_block(OpFamily::kShuffleV2, 0, 8, 8, 1,
                                         rng, "s");
  EXPECT_NE(dynamic_cast<ShuffleChoiceBlock*>(shuffle.get()), nullptr);
  const auto mb = make_family_block(OpFamily::kMbConv, 1, 8, 8, 1, rng, "m");
  EXPECT_NE(dynamic_cast<MbConvChoiceBlock*>(mb.get()), nullptr);
}

// No padding, for the same reason as BlockCase in blocks_test.cpp: the
// case's bytes are its test name.
struct MbCase {
  MbCase(int o, long in, long out, long s)
      : op(o), in_ch(in), out_ch(out), stride(s) {}
  int op;
  std::int32_t zero = 0;
  long in_ch, out_ch, stride;
};
static_assert(std::has_unique_object_representations_v<MbCase>);

class MbConvShapes : public ::testing::TestWithParam<MbCase> {};

TEST_P(MbConvShapes, ForwardBackwardShapes) {
  const MbCase c = GetParam();
  util::Rng rng(2);
  auto block = make_family_block(OpFamily::kMbConv, c.op, c.in_ch, c.out_ch,
                                 c.stride, rng, "mb");
  const Tensor x = block_input(c.in_ch, 8, 3);
  const Tensor y = block->forward(x);
  const long expect = c.stride == 2 ? 4 : 8;
  EXPECT_EQ(y.shape(), (std::vector<long>{2, c.out_ch, expect, expect}));
  const Tensor dx = block->backward(Tensor::ones(y.shape()));
  EXPECT_EQ(dx.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(
    AllOpsBothStrides, MbConvShapes,
    ::testing::Values(MbCase{0, 8, 8, 1}, MbCase{1, 8, 8, 1},
                      MbCase{2, 8, 8, 1}, MbCase{3, 8, 8, 1},
                      MbCase{4, 8, 8, 1}, MbCase{0, 8, 16, 2},
                      MbCase{1, 8, 16, 2}, MbCase{2, 8, 16, 2},
                      MbCase{3, 8, 16, 2}, MbCase{4, 8, 16, 2}));

class MbConvGrad : public ::testing::TestWithParam<MbCase> {};

TEST_P(MbConvGrad, MatchesFiniteDifferences) {
  const MbCase c = GetParam();
  util::Rng rng(4);
  auto block = make_family_block(OpFamily::kMbConv, c.op, c.in_ch, c.out_ch,
                                 c.stride, rng, "mb");
  // Same kink-avoidance as the shuffle-block grad tests: bias BN params so
  // activations sit far from the ReLU corner (see blocks_test.cpp).
  std::vector<Parameter*> params;
  block->collect_params(params);
  for (Parameter* p : params) {
    if (p->name.find("gamma") != std::string::npos) p->value.fill(0.2f);
    if (p->name.find("beta") != std::string::npos) p->value.fill(1.0f);
  }
  const auto result =
      testutil::grad_check(*block, block_input(c.in_ch, 6, 5), 11, 24);
  EXPECT_LT(result.max_input_rel_err, 0.12);
  EXPECT_LT(result.max_param_rel_err, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MbConvGrad,
                         ::testing::Values(MbCase{0, 4, 4, 1},
                                           MbCase{3, 4, 4, 1},
                                           MbCase{1, 4, 8, 2},
                                           MbCase{4, 4, 8, 2}));

TEST(MbConvChoiceBlock, ResidualOnlyAtStride1SameWidth) {
  util::Rng rng(6);
  MbConvChoiceBlock with(3.0, 3, 8, 8, 1, rng);
  EXPECT_TRUE(with.has_residual());
  MbConvChoiceBlock without(3.0, 3, 8, 16, 2, rng);
  EXPECT_FALSE(without.has_residual());
}

TEST(MbConvChoiceBlock, ResidualAddsInput) {
  // Zero all weights: body output is BN(0) = beta = 0, so forward == x.
  util::Rng rng(7);
  MbConvChoiceBlock block(3.0, 3, 4, 4, 1, rng);
  std::vector<Parameter*> params;
  block.collect_params(params);
  for (Parameter* p : params) p->value.zero();
  block.set_mode(Mode::kEval);
  const Tensor x = block_input(4, 5, 8);
  const Tensor y = block.forward(x);
  for (long i = 0; i < x.numel(); ++i) {
    EXPECT_FLOAT_EQ(y.flat()[static_cast<std::size_t>(i)],
                    x.flat()[static_cast<std::size_t>(i)]);
  }
}

TEST(MbConvChoiceBlock, ExpansionSetsMidWidth) {
  util::Rng rng(9);
  MbConvChoiceBlock e3(3.0, 3, 8, 8, 1, rng);
  EXPECT_EQ(e3.max_mid_channels(), 24);
  MbConvChoiceBlock e6(6.0, 5, 8, 8, 1, rng);
  EXPECT_EQ(e6.max_mid_channels(), 48);
  EXPECT_EQ(e6.active_mid_channels(0.5), 24);
}

TEST(MbConvChoiceBlock, SkipStride1IsIdentityWithNoParams) {
  util::Rng rng(10);
  MbConvChoiceBlock skip(0.0, 3, 8, 8, 1, rng);
  EXPECT_EQ(skip.param_count(), 0);
  EXPECT_EQ(skip.max_mid_channels(), 0);
  const Tensor x = block_input(8, 5, 11);
  const Tensor y = skip.forward(x);
  for (long i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(y.flat()[static_cast<std::size_t>(i)],
              x.flat()[static_cast<std::size_t>(i)]);
  }
}

TEST(MbConvChoiceBlock, MaskedChannelsGetNoGradient) {
  util::Rng rng(12);
  MbConvChoiceBlock block(6.0, 3, 4, 4, 1, rng);  // mid = 24
  const Tensor x = block_input(4, 6, 13);
  const Tensor y = block.forward(x, 0.5);  // 12 active
  block.backward(Tensor::ones(y.shape()));
  std::vector<Parameter*> params;
  block.collect_params(params);
  for (Parameter* p : params) {
    if (p->name.find("dw") != std::string::npos && p->value.dim(0) == 24) {
      const long per = p->value.numel() / 24;
      for (long c = 12; c < 24; ++c) {
        for (long i = 0; i < per; ++i) {
          EXPECT_EQ(p->grad.flat()[static_cast<std::size_t>(c * per + i)],
                    0.0f);
        }
      }
    }
  }
}

TEST(MbConvChoiceBlock, Validation) {
  util::Rng rng(14);
  EXPECT_THROW(MbConvChoiceBlock(3.0, 3, 8, 16, 1, rng), InvalidArgument);
  EXPECT_THROW(MbConvChoiceBlock(3.0, 3, 8, 8, 3, rng), InvalidArgument);
  MbConvChoiceBlock block(3.0, 3, 8, 8, 1, rng);
  EXPECT_THROW(block.forward(block_input(8, 5, 15), 1.5), InvalidArgument);
}

}  // namespace
}  // namespace hsconas::nn
