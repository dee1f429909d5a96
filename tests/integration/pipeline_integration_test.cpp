// End-to-end integration tests: the proxy-mode pipeline with a *real*
// trained supernet (the mechanism the paper describes, scaled to seconds),
// plus the JSON reporting path. Kept small — these are the slowest tests
// in the suite by design.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hsconas::core {
namespace {

data::SyntheticDataset make_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.train_size = 180;
  cfg.val_size = 90;
  cfg.image_size = 12;
  cfg.seed = 77;
  return data::SyntheticDataset(cfg);
}

PipelineConfig make_config() {
  PipelineConfig cfg;
  cfg.space = SearchSpaceConfig::proxy(6, 12, 1);  // 3 layers
  cfg.device = "edge";
  cfg.constraint_ms = 1.2;
  cfg.use_surrogate = false;
  cfg.initial_epochs = 2;
  cfg.tune_epochs = 1;
  cfg.shrink_layers_per_stage = 1;
  cfg.shrink.samples_per_subspace = 6;
  cfg.evolution.generations = 3;
  cfg.evolution.population = 10;
  cfg.evolution.parents = 4;
  cfg.train.batch_size = 36;
  cfg.train.lr = 0.08;
  cfg.eval_batches = 2;
  cfg.seed = 5;
  return cfg;
}

TEST(PipelineIntegration, ProxyModeEndToEnd) {
  const auto dataset = make_dataset();
  Pipeline pipeline(make_config());
  const PipelineResult result = pipeline.run(&dataset);

  // Structure: two 1-layer shrink stages happened, in back-to-front order.
  ASSERT_EQ(result.stage1_decisions.size(), 1u);
  ASSERT_EQ(result.stage2_decisions.size(), 1u);
  EXPECT_EQ(result.stage1_decisions[0].layer, 2);
  EXPECT_EQ(result.stage2_decisions[0].layer, 1);
  EXPECT_LT(result.log10_space_after_stage2, result.log10_space_initial);

  // The winner respects the shrunk space and the latency model's budget.
  EXPECT_TRUE(result.best_arch.in_space(pipeline.space()));
  EXPECT_GT(result.best_accuracy, 0.0);
  EXPECT_LE(result.best_accuracy, 1.0);
  EXPECT_NEAR(result.measured_latency_ms, result.predicted_latency_ms,
              result.predicted_latency_ms * 0.2);

  // Supernet training history covers initial + two tuning phases.
  EXPECT_EQ(result.train_history.size(), 2u + 1u + 1u);
  for (const auto& epoch : result.train_history) {
    EXPECT_TRUE(std::isfinite(epoch.loss));
  }
}

TEST(PipelineIntegration, DeterministicAcrossRuns) {
  const auto dataset = make_dataset();
  Pipeline p1(make_config());
  Pipeline p2(make_config());
  const auto r1 = p1.run(&dataset);
  const auto r2 = p2.run(&dataset);
  EXPECT_TRUE(r1.best_arch == r2.best_arch);
  EXPECT_DOUBLE_EQ(r1.best_score, r2.best_score);
  EXPECT_DOUBLE_EQ(r1.predicted_latency_ms, r2.predicted_latency_ms);
}

TEST(PipelineIntegration, JsonReportIsComplete) {
  auto cfg = make_config();
  cfg.use_surrogate = true;  // fast path is enough to test reporting
  cfg.space = SearchSpaceConfig::imagenet_layout_a();
  cfg.shrink_layers_per_stage = 4;
  Pipeline pipeline(cfg);
  const auto result = pipeline.run();

  const util::Json report = pipeline_report_json(result, pipeline.space());
  const std::string json = report.dump();
  EXPECT_NE(json.find("\"winner\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"space_shrinking\""), std::string::npos);
  EXPECT_NE(json.find("\"chosen_op\""), std::string::npos);
  EXPECT_NE(json.find("\"evolution\""), std::string::npos);

  const std::string path = testing::TempDir() + "/hsconas_report.json";
  report.save(path);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
  std::remove(path.c_str());
}

TEST(PipelineIntegration, FairSamplingPipelineEndToEnd) {
  // The FairNAS-style sampler must compose with the full pipeline
  // (shrinking re-samples from the narrowed lists; fair steps then draw
  // permutations of the *surviving* ops).
  const auto dataset = make_dataset();
  auto cfg = make_config();
  cfg.train.fair_sampling = true;
  Pipeline pipeline(cfg);
  const PipelineResult result = pipeline.run(&dataset);
  EXPECT_TRUE(result.best_arch.in_space(pipeline.space()));
  for (const auto& epoch : result.train_history) {
    EXPECT_TRUE(std::isfinite(epoch.loss));
  }
  EXPECT_NEAR(result.measured_latency_ms, result.predicted_latency_ms,
              result.predicted_latency_ms * 0.2);
}

TEST(PipelineIntegration, MbConvProxyPipelineEndToEnd) {
  // Proxy mode with the second operator family: a real MBConv supernet
  // trains, shrinks and searches on the synthetic task.
  const auto dataset = make_dataset();
  auto cfg = make_config();
  cfg.space = cfg.space.with_family(nn::OpFamily::kMbConv);
  cfg.constraint_ms = 1.6;  // MBConv proxy nets run a little heavier
  Pipeline pipeline(cfg);
  const PipelineResult result = pipeline.run(&dataset);
  EXPECT_TRUE(result.best_arch.in_space(pipeline.space()));
  EXPECT_NE(result.best_arch.to_string(pipeline.space()).find("mb_"),
            std::string::npos);
}

#if !defined(HSCONAS_TRACING_DISABLED)
TEST(PipelineIntegration, TraceCoversEveryPipelinePhase) {
  // A traced proxy-mode run must leave spans for each phase the paper's
  // pipeline executes — the acceptance shape for `hsconas search
  // --trace-out=...` (training, shrinking, evolution, kernel-adjacent
  // work all visible in one Perfetto timeline).
  obs::Tracer::clear();
  obs::Tracer::enable();
  const auto dataset = make_dataset();
  Pipeline pipeline(make_config());
  const PipelineResult result = pipeline.run(&dataset);
  obs::Tracer::disable();
  ASSERT_TRUE(result.best_arch.in_space(pipeline.space()));

  std::set<std::string> names;
  for (const auto& e : obs::Tracer::snapshot()) names.insert(e.name);
  for (const char* expected :
       {"pipeline.run", "pipeline.supernet_train", "pipeline.evolution",
        "train.run", "train.epoch", "shrink.stage", "shrink.layer",
        "shrink.score", "evolution.run", "evolution.generation",
        "evolution.score", "supernet.forward",
        "supernet.backward", "latency.build_lut", "latency.calibrate_bias"}) {
    EXPECT_TRUE(names.count(expected) == 1)
        << "missing span: " << expected;
  }

  // The exported trace.json carries the same span names.
  const std::string path = testing::TempDir() + "/hsconas_trace.json";
  obs::save_trace(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::ostringstream os;
  os << f.rdbuf();
  const std::string trace = os.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("pipeline.supernet_train"), std::string::npos);
  EXPECT_NE(trace.find("evolution.generation"), std::string::npos);
  std::remove(path.c_str());
  obs::Tracer::clear();
}
#endif  // !HSCONAS_TRACING_DISABLED

TEST(PipelineIntegration, MetricsCoverSearchHotPaths) {
  // Counters are process-global; snapshot deltas isolate this run.
  const obs::MetricsSnapshot before = obs::metrics_snapshot();
  const auto dataset = make_dataset();
  Pipeline pipeline(make_config());
  const PipelineResult result = pipeline.run(&dataset);
  ASSERT_TRUE(result.best_arch.in_space(pipeline.space()));
  const obs::MetricsSnapshot after = obs::metrics_snapshot();

  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_GT(delta("hsconas.supernet.forwards"), 0u);
  EXPECT_GT(delta("hsconas.supernet.backwards"), 0u);
  EXPECT_GT(delta("hsconas.train.steps"), 0u);
  EXPECT_GT(delta("hsconas.gemm.calls"), 0u);
  EXPECT_GT(delta("hsconas.im2col.calls"), 0u);
  EXPECT_GT(delta("hsconas.latency.lut_hits"), 0u);
  EXPECT_GT(delta("hsconas.latency.device_probes"), 0u);
  EXPECT_GT(delta("hsconas.shrink.q_samples"), 0u);
  EXPECT_GT(delta("hsconas.evolution.candidates_evaluated"), 0u);
  EXPECT_GT(after.gauge_value("hsconas.workspace.peak_bytes"), 0.0);
}

TEST(PipelineIntegration, SupernetSurvivesCheckpointRoundTrip) {
  // Train briefly, checkpoint, reload into a fresh supernet, and verify a
  // candidate evaluates identically — the "resume a search tomorrow" path.
  const auto dataset = make_dataset();
  const SearchSpace space(SearchSpaceConfig::proxy(6, 12, 1));

  Supernet trained(space, 9);
  TrainConfig tc;
  tc.batch_size = 36;
  tc.lr = 0.05;
  tc.seed = 3;
  SupernetTrainer trainer(trained, dataset, tc);
  trainer.run(2);

  const std::string path = testing::TempDir() + "/hsconas_supernet.bin";
  save_parameters(trained.parameters(), path);

  Supernet restored(space, 1234);  // different init
  load_parameters(restored.parameters(), path);

  util::Rng rng(4);
  const Arch arch = Arch::random(space, rng);
  trained.set_mode(nn::Mode::kScore);
  restored.set_mode(nn::Mode::kScore);
  const double acc_a = trained.evaluate(dataset, arch, 36);
  const double acc_b = restored.evaluate(dataset, arch, 36);
  // BN running stats are not part of the checkpoint, but evaluate() uses
  // batch statistics, so the accuracies must match exactly.
  EXPECT_DOUBLE_EQ(acc_a, acc_b);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hsconas::core
