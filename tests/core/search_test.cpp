// Tests for progressive space shrinking, evolutionary search and the
// end-to-end pipeline (surrogate mode for speed; the proxy-mode pipeline is
// exercised in the integration test binary).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/pipeline.h"
#include "core/space_shrinking.h"
#include "hwsim/registry.h"
#include "util/error.h"

namespace hsconas::core {
namespace {

struct Fixture {
  SearchSpace space{SearchSpaceConfig::proxy(10, 16, 2)};  // 6 layers
  hwsim::DeviceSimulator device{hwsim::device_by_name("xavier")};
  AccuracySurrogate surrogate{space};
  LatencyModel model{space, device,
                     LatencyModel::Config{4, 20, 17, true}};
  Objective objective{-0.3, 0.0};

  Fixture() {
    // Mid-range constraint: reachable from both sides in the proxy space.
    util::Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 20; ++i) {
      sum += model.predict_ms(Arch::random(space, rng));
    }
    objective.constraint_ms = sum / 20.0;
  }

  AccuracyFn accuracy_fn() {
    return score_each(
        [this](const Arch& a) { return surrogate.accuracy(a); });
  }
};

TEST(SpaceShrinker, FixesChosenOperator) {
  Fixture f;
  SpaceShrinker shrinker(f.space, f.accuracy_fn(), f.model, f.objective,
                         SpaceShrinker::Config{30, 7});
  const auto decision = shrinker.shrink_layer(5);
  EXPECT_TRUE(f.space.is_fixed(5));
  EXPECT_EQ(f.space.allowed_ops(5)[0], decision.chosen_op);
  EXPECT_EQ(decision.quality.size(), 5u);
  EXPECT_EQ(decision.subspaces_evaluated, 5);
}

TEST(SpaceShrinker, ChosenOpMaximizesQuality) {
  Fixture f;
  SpaceShrinker shrinker(f.space, f.accuracy_fn(), f.model, f.objective,
                         SpaceShrinker::Config{50, 7});
  const auto decision = shrinker.shrink_layer(4);
  double best = -1e300;
  int best_op = -1;
  for (std::size_t i = 0; i < decision.quality.size(); ++i) {
    if (decision.quality[i] > best) {
      best = decision.quality[i];
      best_op = static_cast<int>(i);
    }
  }
  EXPECT_EQ(decision.chosen_op, best_op);
}

TEST(SpaceShrinker, StageComplexityIsKTimesLayers) {
  // §III-C: a 4-layer stage costs 5 × 4 subspace evaluations, not 5^4.
  Fixture f;
  SpaceShrinker shrinker(f.space, f.accuracy_fn(), f.model, f.objective,
                         SpaceShrinker::Config{10, 7});
  const auto decisions = shrinker.shrink_stage(5, 4);
  EXPECT_EQ(decisions.size(), 4u);
  EXPECT_EQ(shrinker.total_subspaces_evaluated(), 20);  // 5 ops × 4 layers
  // Back-to-front order.
  EXPECT_EQ(decisions[0].layer, 5);
  EXPECT_EQ(decisions[3].layer, 2);
}

TEST(SpaceShrinker, StageShrinksSpaceByLog10KPerLayer) {
  Fixture f;
  const double before = f.space.log10_size();
  SpaceShrinker shrinker(f.space, f.accuracy_fn(), f.model, f.objective,
                         SpaceShrinker::Config{10, 7});
  shrinker.shrink_stage(5, 3);
  EXPECT_NEAR(before - f.space.log10_size(), 3 * std::log10(5.0), 1e-9);
}

TEST(SpaceShrinker, BadRangeThrows) {
  Fixture f;
  SpaceShrinker shrinker(f.space, f.accuracy_fn(), f.model, f.objective,
                         SpaceShrinker::Config{10, 7});
  EXPECT_THROW(shrinker.shrink_stage(5, 7), InvalidArgument);
  EXPECT_THROW(shrinker.shrink_stage(9, 1), InvalidArgument);
}

TEST(SpaceShrinker, DeterministicGivenSeed) {
  Fixture f1, f2;
  SpaceShrinker s1(f1.space, f1.accuracy_fn(), f1.model, f1.objective,
                   SpaceShrinker::Config{30, 99});
  SpaceShrinker s2(f2.space, f2.accuracy_fn(), f2.model, f2.objective,
                   SpaceShrinker::Config{30, 99});
  EXPECT_EQ(s1.shrink_layer(5).chosen_op, s2.shrink_layer(5).chosen_op);
}

TEST(EvolutionSearch, FindsArchNearConstraint) {
  Fixture f;
  EvolutionSearch::Config cfg;
  cfg.generations = 10;
  cfg.population = 30;
  cfg.parents = 10;
  cfg.seed = 21;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.model, f.objective,
                         cfg);
  const auto result = search.run();
  EXPECT_NEAR(result.best.latency_ms, f.objective.constraint_ms,
              f.objective.constraint_ms * 0.10);
  EXPECT_EQ(result.per_generation.size(), 10u);
}

TEST(EvolutionSearch, BestScoreNeverDecreases) {
  Fixture f;
  EvolutionSearch::Config cfg;
  cfg.generations = 8;
  cfg.population = 20;
  cfg.parents = 8;
  cfg.seed = 22;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.model, f.objective,
                         cfg);
  const auto result = search.run();
  for (std::size_t g = 1; g < result.per_generation.size(); ++g) {
    EXPECT_GE(result.per_generation[g].best_score,
              result.per_generation[g - 1].best_score - 1e-12);
  }
}

TEST(EvolutionSearch, BeatsRandomSearchAtEqualBudget) {
  Fixture f;
  EvolutionSearch::Config cfg;
  cfg.generations = 10;
  cfg.population = 25;
  cfg.parents = 10;
  cfg.seed = 23;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.model, f.objective,
                         cfg);
  const auto ea = search.run();
  const std::size_t budget = ea.evaluated.size();

  util::Rng rng(23);
  double best_random = -1e300;
  for (std::size_t i = 0; i < budget; ++i) {
    const Arch arch = Arch::random(f.space, rng);
    best_random = std::max(
        best_random, f.objective.score(f.surrogate.accuracy(arch),
                                       f.model.predict_ms(arch)));
  }
  EXPECT_GE(ea.best.score, best_random);
}

TEST(EvolutionSearch, RespectsShrunkSpace) {
  Fixture f;
  f.space.fix_op(5, 2);
  f.space.fix_op(4, 0);
  EvolutionSearch::Config cfg;
  cfg.generations = 4;
  cfg.population = 15;
  cfg.parents = 5;
  cfg.seed = 24;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.model, f.objective,
                         cfg);
  const auto result = search.run();
  for (const auto& cand : result.evaluated) {
    EXPECT_EQ(cand.arch.ops[5], 2);
    EXPECT_EQ(cand.arch.ops[4], 0);
  }
}

TEST(EvolutionSearch, EvaluatedCandidatesMostlyUnique) {
  Fixture f;
  EvolutionSearch::Config cfg;
  cfg.generations = 6;
  cfg.population = 20;
  cfg.parents = 8;
  cfg.seed = 25;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.model, f.objective,
                         cfg);
  const auto result = search.run();
  std::set<std::uint64_t> hashes;
  for (const auto& cand : result.evaluated) hashes.insert(cand.arch.hash());
  EXPECT_EQ(hashes.size(), result.evaluated.size());
}

TEST(EvolutionSearch, DeterministicGivenSeed) {
  Fixture f1, f2;
  EvolutionSearch::Config cfg;
  cfg.generations = 5;
  cfg.population = 15;
  cfg.parents = 6;
  cfg.seed = 26;
  EvolutionSearch s1(f1.space, f1.accuracy_fn(), f1.model, f1.objective, cfg);
  EvolutionSearch s2(f2.space, f2.accuracy_fn(), f2.model, f2.objective, cfg);
  const auto r1 = s1.run();
  const auto r2 = s2.run();
  EXPECT_TRUE(r1.best.arch == r2.best.arch);
  EXPECT_DOUBLE_EQ(r1.best.score, r2.best.score);
}

TEST(EvolutionSearch, ConfigValidation) {
  Fixture f;
  EvolutionSearch::Config cfg;
  cfg.population = 1;
  EXPECT_THROW(
      EvolutionSearch(f.space, f.accuracy_fn(), f.model, f.objective, cfg),
      InvalidArgument);
  cfg = EvolutionSearch::Config{};
  cfg.parents = 99;
  EXPECT_THROW(
      EvolutionSearch(f.space, f.accuracy_fn(), f.model, f.objective, cfg),
      InvalidArgument);
}

TEST(Pipeline, SurrogateModeEndToEnd) {
  PipelineConfig cfg;
  cfg.space = SearchSpaceConfig::imagenet_layout_a();
  cfg.device = "gpu";
  cfg.use_surrogate = true;
  cfg.evolution.generations = 6;
  cfg.evolution.population = 20;
  cfg.evolution.parents = 8;
  cfg.shrink.samples_per_subspace = 20;
  cfg.seed = 77;
  Pipeline pipeline(cfg);
  const auto result = pipeline.run();

  EXPECT_EQ(result.constraint_ms, 9.0);  // paper GPU constraint
  EXPECT_NEAR(result.predicted_latency_ms, 9.0, 1.8);
  EXPECT_GT(result.best_accuracy, 0.70);
  // Two stages of 4 layers: 2 * 4 * log10(5) less space.
  EXPECT_NEAR(result.log10_space_initial - result.log10_space_after_stage2,
              8 * std::log10(5.0), 1e-9);
  EXPECT_EQ(result.stage1_decisions.size(), 4u);
  EXPECT_EQ(result.stage2_decisions.size(), 4u);
  // The winner respects the shrunk layers.
  for (const auto& d : result.stage1_decisions) {
    EXPECT_EQ(result.best_arch.ops[static_cast<std::size_t>(d.layer)],
              d.chosen_op);
  }
  // Measured latency close to predicted (B does its job).
  EXPECT_NEAR(result.measured_latency_ms, result.predicted_latency_ms,
              result.predicted_latency_ms * 0.15);
}

TEST(Pipeline, ProxyModeRequiresDataset) {
  PipelineConfig cfg;
  cfg.use_surrogate = false;
  Pipeline pipeline(cfg);
  EXPECT_THROW(pipeline.run(nullptr), InvalidArgument);
}

TEST(Pipeline, UnknownDeviceThrows) {
  PipelineConfig cfg;
  cfg.device = "asic9000";
  EXPECT_THROW(Pipeline{cfg}, InvalidArgument);
}

}  // namespace
}  // namespace hsconas::core
