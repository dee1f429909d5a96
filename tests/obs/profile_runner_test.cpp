// End-to-end contract for eval::run_profile — the engine behind
// `hsconas profile`: sampled archs run with the per-op profiler armed, per
// op and per arch predicted-vs-measured with rank correlations, JSON
// round-trip, and config validation. Proxy-scale spaces keep it fast.

#include "eval/profile_runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/profiler.h"
#include "util/error.h"
#include "util/json.h"

namespace eval = hsconas::eval;

namespace {

eval::ProfileConfig tiny_config() {
  eval::ProfileConfig cfg;
  cfg.space = hsconas::core::SearchSpaceConfig::proxy(6, 12, 1);
  cfg.num_archs = 3;
  cfg.iters = 3;
  cfg.warmup = 1;
  cfg.batch = 2;
  cfg.seed = 7;
  return cfg;
}

bool profiler_compiled_in() { return hsconas::obs::Profiler::compiled_in(); }

TEST(ProfileRunner, ThreeArchReportHasFullShape) {
  const eval::LatencyReport report = eval::run_profile(tiny_config());

  ASSERT_EQ(report.points.size(), 3u);
  for (const eval::LatencyPoint& p : report.points) {
    EXPECT_GT(p.measured_ms, 0.0);
    EXPECT_GT(p.measured_p50_ms, 0.0);
    EXPECT_GE(p.measured_p95_ms, p.measured_p50_ms);
    EXPECT_GT(p.predicted_ms, 0.0);
    if (profiler_compiled_in()) {
      EXPECT_GT(p.ops.priced_ops, 0u);
      EXPECT_GE(p.ops.kendall_tau, -1.0);
      EXPECT_LE(p.ops.kendall_tau, 1.0);
    } else {
      EXPECT_TRUE(p.ops.ops.empty());
    }
  }

  EXPECT_GE(report.stats.kendall_tau, -1.0);
  EXPECT_LE(report.stats.kendall_tau, 1.0);
  EXPECT_GE(report.stats.spearman, -1.0);
  EXPECT_LE(report.stats.spearman, 1.0);

  if (profiler_compiled_in()) {
    EXPECT_GT(report.ops.priced_ops, 0u);
    EXPECT_GT(report.ops.median_ratio, 0.0);
    // Backward was off, so every op has an inference-side price.
    EXPECT_EQ(report.ops.unpriced_ops, 0u);
  }

  // The runner must leave the profiler off for whoever runs next.
  EXPECT_FALSE(hsconas::obs::Profiler::enabled());
}

TEST(ProfileRunner, BackwardOpsStayUnpriced) {
  eval::ProfileConfig cfg = tiny_config();
  cfg.num_archs = 1;
  cfg.backward = true;
  const eval::LatencyReport report = eval::run_profile(cfg);
  if (!profiler_compiled_in()) GTEST_SKIP();
  EXPECT_GT(report.ops.unpriced_ops, 0u);
  bool saw_bwd = false;
  for (const auto& cmp : report.ops.ops) {
    const bool is_bwd =
        cmp.measured.key.op.size() > 4 &&
        cmp.measured.key.op.compare(cmp.measured.key.op.size() - 4, 4,
                                    ".bwd") == 0;
    if (is_bwd) {
      saw_bwd = true;
      EXPECT_FALSE(cmp.priced) << cmp.measured.signature;
    }
  }
  EXPECT_TRUE(saw_bwd);
}

TEST(ProfileRunner, FusedVariantCoversFusedConvPath) {
  eval::ProfileConfig cfg = tiny_config();
  cfg.num_archs = 1;
  cfg.fused = true;
  const eval::LatencyReport report = eval::run_profile(cfg);
  if (!profiler_compiled_in()) GTEST_SKIP();
  bool saw_fused = false;
  for (const auto& cmp : report.ops.ops) {
    if (cmp.measured.key.op == "conv2d.fused") saw_fused = true;
  }
  EXPECT_TRUE(saw_fused);
}

TEST(ProfileRunner, JsonRoundTripsAndCarriesSchema) {
  eval::ProfileConfig cfg = tiny_config();
  cfg.iters = 2;
  const eval::LatencyReport report = eval::run_profile(cfg);
  const hsconas::util::Json doc = eval::profile_report_json(cfg, report);

  const hsconas::util::Json reparsed = hsconas::util::Json::parse(doc.dump());
  ASSERT_NE(reparsed.find("schema"), nullptr);
  EXPECT_EQ(reparsed.find("schema")->as_string(), "hsconas.profile.v1");
  ASSERT_NE(reparsed.find("archs"), nullptr);
  EXPECT_EQ(reparsed.find("archs")->items().size(), 3u);
  for (const hsconas::util::Json& a : reparsed.find("archs")->items()) {
    ASSERT_NE(a.find("arch"), nullptr);
    EXPECT_FALSE(a.find("arch")->as_string().empty());
  }
  ASSERT_NE(reparsed.find("correlation"), nullptr);
  ASSERT_NE(reparsed.find("overall"), nullptr);
  ASSERT_NE(reparsed.find("worst_offenders"), nullptr);

  const std::string rendered = eval::render_profile_report(cfg, report);
  EXPECT_NE(rendered.find("per-arch predicted vs measured"),
            std::string::npos);
  EXPECT_NE(rendered.find("kendall_tau"), std::string::npos);
}

TEST(ProfileRunner, RejectsNonsenseConfigs) {
  eval::ProfileConfig cfg = tiny_config();
  cfg.num_archs = 0;
  EXPECT_THROW(eval::run_profile(cfg), hsconas::InvalidArgument);

  cfg = tiny_config();
  cfg.iters = 0;
  EXPECT_THROW(eval::run_profile(cfg), hsconas::InvalidArgument);

  cfg = tiny_config();
  cfg.fused = true;
  cfg.backward = true;
  EXPECT_THROW(eval::run_profile(cfg), hsconas::InvalidArgument);

  cfg = tiny_config();
  cfg.device = "no-such-device";
  EXPECT_THROW(eval::run_profile(cfg), hsconas::Error);
}

TEST(ProfileRunner, SameSeedIsDeterministicInStructure) {
  const eval::LatencyReport a = eval::run_profile(tiny_config());
  const eval::LatencyReport b = eval::run_profile(tiny_config());
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].arch, b.points[i].arch);
    EXPECT_DOUBLE_EQ(a.points[i].predicted_ms, b.points[i].predicted_ms);
  }
}

// The quant gene must not shift the arch stream: at one seed an f32 and an
// int8 profile time the same ops at the same factors, so their per-arch
// timings can be read against each other.
TEST(ProfileRunner, F32AndInt8ProfilesSampleTheSameArchs) {
  eval::ProfileConfig cfg = tiny_config();
  cfg.num_archs = 8;
  cfg.iters = 1;
  cfg.warmup = 0;
  const eval::LatencyReport f32 = eval::run_profile(cfg);
  cfg.dtype = hsconas::nn::InferenceDType::kI8;
  const eval::LatencyReport i8 = eval::run_profile(cfg);
  ASSERT_EQ(f32.points.size(), i8.points.size());
  for (std::size_t i = 0; i < f32.points.size(); ++i) {
    EXPECT_EQ(f32.points[i].arch.ops, i8.points[i].arch.ops) << "arch " << i;
    EXPECT_EQ(f32.points[i].arch.factors, i8.points[i].arch.factors)
        << "arch " << i;
    EXPECT_EQ(0, f32.points[i].arch.quant);
    EXPECT_EQ(1, i8.points[i].arch.quant);
  }
}

}  // namespace
