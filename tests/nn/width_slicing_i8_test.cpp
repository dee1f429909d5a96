// Width slicing, int8: every op of both families at factors 0.1 / 0.5 /
// 1.0, calibrated at that factor and served in kEval and kEvalFused,
// equals a block built at the active width bit for bit, when that block's
// convs carry the leading window of the sliced layers' quantization: the
// same activation quantizer and per-channel weight scales, so the same
// weight codes, with row sums over the narrow rows. That pins the sliced
// int8 conv — codes quantized for the active channels only, the int8 GEMM
// reading the leading window of the codes, acc_bias from the active K
// prefix of each row — to a dense int8 conv.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/quantize.h"
#include "tests/core/pool_guard.h"
#include "tests/nn/width_slicing_cases.h"

namespace hsconas::nn::slicing {
namespace {

using tensor::Tensor;

/// Give each reference conv the leading window of its block layer's
/// quantization.
void copy_quantization(Reference& ref) {
  for (auto& [full, narrow] : ref.pairs) {
    auto* conv = dynamic_cast<Conv2d*>(full);
    if (conv == nullptr) continue;
    auto* copy = dynamic_cast<Conv2d*>(narrow);
    const QuantState& q = *conv->quant_state();
    ASSERT_TRUE(q.ready) << conv->name();
    const long rows = copy->out_channels();
    copy->quant_state()->freeze_from(
        copy->weight().value, rows, q.input,
        std::vector<float>(q.weight_scales.begin(),
                           q.weight_scales.begin() + rows));
  }
}

void check_case(OpFamily family, int op, const BlockShape& s, double factor,
                Mode mode) {
  auto block = make_block(family, op, s, 700 + static_cast<std::uint64_t>(op));
  const long active = block->active_mid_channels(factor);
  Reference ref(*block, family, op, s, active);
  util::Rng rng(41);
  // One train step first, so eval BatchNorm reads trained running
  // statistics on the active channels.
  const Tensor x = Tensor::uniform({3, s.in, 6, 6}, -1.0f, 1.0f, rng);
  block->set_mode(Mode::kTrain);
  ref.set_mode(Mode::kTrain);
  ASSERT_TRUE(same_bits(block->forward(x, factor), ref.forward(x)));

  block->set_mode(mode);
  ref.set_mode(mode);
  const std::vector<Tensor> batches = {
      Tensor::uniform({3, s.in, 6, 6}, -1.0f, 1.0f, rng),
      Tensor::uniform({2, s.in, 6, 6}, -1.0f, 1.0f, rng)};
  calibrate_with([&](const std::function<void(Module&)>& fn) {
    block->visit(fn);
  }, [&](const Tensor& b) { (void)block->forward(b, factor); }, batches);
  copy_quantization(ref);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(same_bits(block->forward(x, factor), ref.forward(x)));
}

TEST(WidthSlicingI8, CalibratedEveryOpMatchesABlockBuiltAtTheActiveWidth) {
  for (const Mode mode : {Mode::kEval, Mode::kEvalFused}) {
    for (const OpFamily family : kFamilies) {
      for (int op = 0; op < family_num_ops(family); ++op) {
        for (const BlockShape& s : kShapes) {
          for (const double factor : kFactors) {
            SCOPED_TRACE(std::string(family_op_name(family, op)) + " in " +
                         std::to_string(s.in) + " stride " +
                         std::to_string(s.stride) + " factor " +
                         std::to_string(factor) + " mode " +
                         std::to_string(static_cast<int>(mode)));
            check_case(family, op, s, factor, mode);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(WidthSlicingI8, RequantizedOutputsIgnorePoisonedPoolBlocks) {
  // The int8 GEMM and depthwise requantize every output element, so the
  // output is built without a zero fill: NaN-filled blocks parked right
  // before a forward must not change a bit, full width or sliced.
  testutil::PoolGuard guard(1);  // every block on this thread's pool
  util::Rng rng(43);
  Sequential net;
  net.add(std::make_unique<Conv2d>(8, 8, 1, 1, 0, 1, false, rng));
  net.add(std::make_unique<Conv2d>(8, 8, 3, 2, 1, 8, false, rng));
  net.add(std::make_unique<Conv2d>(8, 6, 3, 1, 1, 1, true, rng));
  net.set_mode(Mode::kEval);
  const Tensor x = Tensor::uniform({3, 8, 7, 7}, -1.0f, 1.0f, rng);
  ASSERT_EQ(3u, calibrate(net, {x}));
  for (const long out : {0L, 5L}) {
    const Tensor want = net.forward(x, out);
    std::vector<Tensor> poison;
    for (const tensor::ShapeVec& shape :
         {want.shape(), tensor::ShapeVec{3, 8, 7, 7},
          tensor::ShapeVec{3, 8, 4, 4}}) {
      for (int i = 0; i < 4; ++i) {
        poison.push_back(
            Tensor::full(shape, std::numeric_limits<float>::quiet_NaN()));
      }
    }
    const tensor::ShapeVec probe = want.shape();
    poison.clear();  // park the NaN blocks
    ASSERT_TRUE(std::isnan(Tensor::for_overwrite(probe).data()[0]));
    ASSERT_TRUE(same_bits(want, net.forward(x, out))) << "out " << out;
  }
}

}  // namespace
}  // namespace hsconas::nn::slicing
