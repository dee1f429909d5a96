// Cross-product property sweep: every (device × operator family) pair must
// satisfy the invariants the search relies on. This is the broadest net in
// the suite — a regression anywhere in lowering, the device model, or the
// family tables shows up here first.

#include <gtest/gtest.h>

#include <tuple>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/lowering.h"
#include "eval/latency_report.h"
#include "hwsim/registry.h"

namespace hsconas::core {
namespace {

using Combo = std::tuple<std::string, nn::OpFamily>;

class FamilyDeviceSweep : public ::testing::TestWithParam<Combo> {
 protected:
  SearchSpace make_space() const {
    return SearchSpace(SearchSpaceConfig::imagenet_layout_a().with_family(
        std::get<1>(GetParam())));
  }
  hwsim::DeviceSimulator make_device() const {
    return hwsim::DeviceSimulator(
        hwsim::device_by_name(std::get<0>(GetParam())));
  }
};

TEST_P(FamilyDeviceSweep, LatencyModelTracksGroundTruth) {
  const SearchSpace space = make_space();
  const hwsim::DeviceSimulator device = make_device();
  LatencyModel model(space, device,
                     LatencyModel::Config{
                         device.profile().default_batch, 30, 61, true});
  const auto report = eval::evaluate_latency_model(model, 60, 62);
  EXPECT_GT(report.stats.pearson, 0.95) << "bias " << report.bias_ms;
  EXPECT_LT(report.stats.rmse_ms, report.rmse_uncorrected_ms);
  double mean_measured = 0.0;
  for (const auto& p : report.points) mean_measured += p.measured_ms;
  mean_measured /= static_cast<double>(report.points.size());
  EXPECT_LT(report.stats.rmse_ms / mean_measured, 0.1);
}

TEST_P(FamilyDeviceSweep, ChannelFactorMonotoneInLut) {
  const SearchSpace space = make_space();
  const hwsim::DeviceSimulator device = make_device();
  const LatencyModel model(
      space, device,
      LatencyModel::Config{device.profile().default_batch, 10, 63, true});
  for (int l = 0; l < space.num_layers(); l += 5) {
    for (int op = 0; op < space.config().num_ops; ++op) {
      if (nn::family_op_is_skip(space.config().family, op)) continue;
      EXPECT_LE(model.lut_ms(l, op, 0), model.lut_ms(l, op, 9) + 1e-12)
          << "layer " << l << " op " << op;
    }
  }
}

TEST_P(FamilyDeviceSweep, SkipIsCheapestAtEveryLayer) {
  const SearchSpace space = make_space();
  const hwsim::DeviceSimulator device = make_device();
  const LatencyModel model(
      space, device,
      LatencyModel::Config{device.profile().default_batch, 10, 64, true});
  int skip_op = -1;
  for (int op = 0; op < space.config().num_ops; ++op) {
    if (nn::family_op_is_skip(space.config().family, op)) skip_op = op;
  }
  ASSERT_GE(skip_op, 0);
  for (int l = 0; l < space.num_layers(); ++l) {
    for (int op = 0; op < space.config().num_ops; ++op) {
      EXPECT_LE(model.lut_ms(l, skip_op, 9), model.lut_ms(l, op, 9) + 1e-12)
          << "layer " << l << " op " << op;
    }
  }
}

TEST_P(FamilyDeviceSweep, EvolutionHitsMidRangeConstraint) {
  const SearchSpace space = make_space();
  const hwsim::DeviceSimulator device = make_device();
  const LatencyModel model(
      space, device,
      LatencyModel::Config{device.profile().default_batch, 20, 65, true});
  const AccuracySurrogate surrogate(space);

  util::Rng rng(66);
  double sum = 0.0;
  for (int i = 0; i < 20; ++i) {
    sum += model.predict_ms(Arch::random(space, rng));
  }
  const double T = sum / 20.0;

  EvolutionSearch::Config cfg;
  cfg.generations = 6;
  cfg.population = 20;
  cfg.parents = 8;
  cfg.seed = 67;
  EvolutionSearch search(
      space, score_each([&](const Arch& a) { return surrogate.accuracy(a); }),
      model, Objective{-0.3, T}, cfg);
  const auto result = search.run();
  EXPECT_NEAR(result.best.latency_ms, T, T * 0.08);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FamilyDeviceSweep,
    ::testing::Combine(::testing::Values("gv100", "xeon6136", "xavier"),
                       ::testing::Values(nn::OpFamily::kShuffleV2,
                                         nn::OpFamily::kMbConv)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             nn::family_name(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace hsconas::core
