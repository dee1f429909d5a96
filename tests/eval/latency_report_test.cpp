#include "eval/latency_report.h"

#include <gtest/gtest.h>

#include "eval/profile_runner.h"
#include "hwsim/registry.h"
#include "util/stats.h"

namespace hsconas::eval {
namespace {

struct Fixture {
  core::SearchSpace space{core::SearchSpaceConfig::proxy()};
  hwsim::DeviceSimulator device{hwsim::device_by_name("gpu")};
  core::LatencyModel model{space, device,
                           core::LatencyModel::Config{8, 20, 51, true}};
};

TEST(LatencyEval, ReportHasRequestedPointCount) {
  Fixture f;
  const auto report = evaluate_latency_model(f.model, 30, 1);
  EXPECT_EQ(report.points.size(), 30u);
  for (const auto& p : report.points) {
    EXPECT_GT(p.predicted_ms, 0.0);
    EXPECT_GT(p.measured_ms, 0.0);
    // With-bias prediction differs from without by exactly B.
    EXPECT_NEAR(p.predicted_ms - p.predicted_uncorrected_ms,
                f.model.bias_ms(), 1e-12);
  }
}

/// Each report's statistics equal the util:: functions over its own points.
void expect_stats_match_points(const LatencyReport& report) {
  std::vector<double> pred, uncorrected, meas;
  for (const auto& p : report.points) {
    pred.push_back(p.predicted_ms);
    uncorrected.push_back(p.predicted_uncorrected_ms);
    meas.push_back(p.measured_ms);
  }
  const LatencyStats& s = report.stats;
  EXPECT_DOUBLE_EQ(s.rmse_ms, util::rmse(pred, meas));
  EXPECT_DOUBLE_EQ(report.rmse_uncorrected_ms, util::rmse(uncorrected, meas));
  EXPECT_DOUBLE_EQ(s.mae_ms, util::mae(pred, meas));
  EXPECT_DOUBLE_EQ(s.pearson, util::pearson(pred, meas));
  EXPECT_DOUBLE_EQ(s.spearman, util::spearman(pred, meas));
  EXPECT_DOUBLE_EQ(s.kendall_tau, util::kendall_tau(pred, meas));
  EXPECT_GE(s.rmse_ms, 0.0);
  EXPECT_LE(s.pearson, 1.0);
  EXPECT_GE(s.kendall_tau, -1.0);
  EXPECT_LE(s.kendall_tau, 1.0);
  EXPECT_LE(s.mae_ms, s.rmse_ms + 1e-12);  // AM-QM inequality
}

TEST(LatencyEval, MetricsInternallyConsistent) {
  {
    SCOPED_TRACE("simulated");
    Fixture f;
    const auto report = evaluate_latency_model(f.model, 50, 2);
    EXPECT_DOUBLE_EQ(report.bias_ms, f.model.bias_ms());
    expect_stats_match_points(report);
  }
  {
    SCOPED_TRACE("host-timed");
    ProfileConfig cfg;
    cfg.space = core::SearchSpaceConfig::proxy(6, 12, 1);
    cfg.num_archs = 3;
    cfg.iters = 2;
    cfg.warmup = 1;
    cfg.batch = 2;
    cfg.seed = 9;
    const auto report = run_profile(cfg);
    ASSERT_EQ(report.points.size(), 3u);
    expect_stats_match_points(report);
  }
}

TEST(LatencyEval, DifferentSeedsDifferentSamples) {
  Fixture f;
  const auto a = evaluate_latency_model(f.model, 10, 3);
  const auto b = evaluate_latency_model(f.model, 10, 4);
  bool any_different = false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (!(a.points[i].arch == b.points[i].arch)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace hsconas::eval
