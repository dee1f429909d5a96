#include "core/latency_model.h"

#include <gtest/gtest.h>

#include "eval/latency_report.h"
#include "hwsim/registry.h"
#include "util/error.h"

namespace hsconas::core {
namespace {

struct Fixture {
  SearchSpace space{SearchSpaceConfig::proxy()};
  hwsim::DeviceSimulator device{hwsim::device_by_name("xavier")};

  LatencyModel make_model(int bias_samples = 20) {
    LatencyModel::Config cfg;
    cfg.batch = 4;
    cfg.bias_samples = bias_samples;
    cfg.seed = 11;
    return LatencyModel(space, device, cfg);
  }
};

TEST(LatencyModel, PredictionIsLutSumPlusBias) {
  Fixture f;
  LatencyModel model = f.make_model();
  util::Rng rng(1);
  const Arch arch = Arch::random(f.space, rng);

  double expected = model.stem_ms() + model.head_ms();
  for (int l = 0; l < f.space.num_layers(); ++l) {
    expected += model.lut_ms(l, arch.ops[static_cast<std::size_t>(l)],
                             arch.factors[static_cast<std::size_t>(l)]);
  }
  EXPECT_NEAR(model.predict_uncorrected_ms(arch), expected, 1e-12);
  EXPECT_NEAR(model.predict_ms(arch), expected + model.bias_ms(), 1e-12);
}

TEST(LatencyModel, BiasIsPositiveCommunicationCost) {
  // The simulator charges communication on whole-network runs only, so the
  // Eq. 3 bias must come out positive.
  Fixture f;
  const LatencyModel model = f.make_model();
  EXPECT_GT(model.bias_ms(), 0.0);
}

TEST(LatencyModel, BiasCorrectionShrinksRmse) {
  // Fig. 3's message: with B the estimate tracks on-device latency.
  Fixture f;
  LatencyModel model = f.make_model(40);
  const auto report = eval::evaluate_latency_model(model, 60, 3);
  EXPECT_LT(report.stats.rmse_ms, report.rmse_uncorrected_ms);
  EXPECT_GT(report.stats.pearson, 0.95);
  EXPECT_GT(report.stats.spearman, 0.9);
}

TEST(LatencyModel, RelativeRmseIsSmall) {
  // The paper reports sub-ms RMSE on 10-70 ms networks; our simulator
  // should reproduce the same "B recovers nearly everything" behaviour.
  Fixture f;
  LatencyModel model = f.make_model(40);
  const auto report = eval::evaluate_latency_model(model, 60, 4);
  double mean_measured = 0.0;
  for (const auto& p : report.points) mean_measured += p.measured_ms;
  mean_measured /= static_cast<double>(report.points.size());
  EXPECT_LT(report.stats.rmse_ms / mean_measured, 0.08);
}

TEST(LatencyModel, MeasurementNoiseCanBeDisabled) {
  Fixture f;
  LatencyModel::Config cfg;
  cfg.batch = 4;
  cfg.bias_samples = 5;
  cfg.measurement_noise = false;
  LatencyModel model(f.space, f.device, cfg);
  util::Rng rng(2);
  const Arch arch = Arch::random(f.space, rng);
  const double a = model.measure_ms(arch);
  const double b = model.measure_ms(arch);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, model.true_ms(arch));
}

TEST(LatencyModel, NoisyMeasurementsJitter) {
  Fixture f;
  LatencyModel model = f.make_model();
  util::Rng rng(3);
  const Arch arch = Arch::random(f.space, rng);
  const double a = model.measure_ms(arch);
  const double b = model.measure_ms(arch);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, model.true_ms(arch), model.true_ms(arch) * 0.2);
}

TEST(LatencyModel, MonotoneInChannelFactorPerLayer) {
  Fixture f;
  const LatencyModel model = f.make_model();
  for (int l = 0; l < f.space.num_layers(); ++l) {
    for (int op = 0; op < 4; ++op) {  // skip (op 4) has flat latency
      EXPECT_LE(model.lut_ms(l, op, 0), model.lut_ms(l, op, 9))
          << "layer " << l << " op " << op;
    }
  }
}

TEST(LatencyModel, SkipIsCheapestOperator) {
  Fixture f;
  const LatencyModel model = f.make_model();
  for (int l = 0; l < f.space.num_layers(); ++l) {
    for (int op = 0; op < 4; ++op) {
      EXPECT_LE(model.lut_ms(l, 4, 9), model.lut_ms(l, op, 9));
    }
  }
}

TEST(LatencyModel, LutIndexValidation) {
  Fixture f;
  const LatencyModel model = f.make_model();
  EXPECT_THROW(model.lut_ms(99, 0, 0), InternalError);
  EXPECT_THROW(model.lut_ms(0, 9, 0), InternalError);
  EXPECT_THROW(model.lut_ms(0, 0, 99), InternalError);
}

TEST(LatencyModel, ConfigValidation) {
  Fixture f;
  LatencyModel::Config cfg;
  cfg.batch = -1;
  EXPECT_THROW(LatencyModel(f.space, f.device, cfg), InvalidArgument);
  cfg.batch = 4;
  cfg.bias_samples = 0;
  EXPECT_THROW(LatencyModel(f.space, f.device, cfg), InvalidArgument);
}

TEST(LatencyModel, BatchZeroMeansDeviceDefaultAndOneIsHonored) {
  // batch == 0 is the "unset" sentinel (resolved to the device profile's
  // default); an explicit batch — 1 included — is used as given.
  Fixture f;
  LatencyModel::Config cfg;
  cfg.bias_samples = 4;
  cfg.batch = 0;
  const LatencyModel defaulted(f.space, f.device, cfg);
  EXPECT_EQ(defaulted.batch(), f.device.profile().default_batch);
  cfg.batch = 1;
  const LatencyModel single(f.space, f.device, cfg);
  EXPECT_EQ(single.batch(), 1);
}

TEST(LatencyModel, KendallTauHighOnProxySpace) {
  // Ranking quality matters more than absolute error for NAS decisions.
  Fixture f;
  LatencyModel model = f.make_model(40);
  const auto report = eval::evaluate_latency_model(model, 50, 5);
  EXPECT_GT(report.stats.kendall_tau, 0.75);
}

}  // namespace
}  // namespace hsconas::core
