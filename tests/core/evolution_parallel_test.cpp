// Determinism contract for concurrent candidate scoring: EvolutionSearch
// and SpaceShrinker breed/draw genomes serially and score them across
// util::ThreadPool::global() into index-ordered slots, so a run on a pool
// of N workers must be BIT-identical — not merely statistically close —
// to a run on one worker (where parallel_for runs inline, i.e. serially)
// for the same seed. These tests pin that guarantee.

#include <gtest/gtest.h>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/space_shrinking.h"
#include "hwsim/registry.h"
#include "tests/core/pool_guard.h"

namespace hsconas::core {
namespace {

using testutil::PoolGuard;

struct Fixture {
  SearchSpace space{SearchSpaceConfig::proxy(10, 16, 2)};  // 6 layers
  hwsim::DeviceSimulator device{hwsim::device_by_name("xavier")};
  AccuracySurrogate surrogate{space};
  LatencyModel model{space, device, LatencyModel::Config{4, 20, 17, true}};
  Objective objective{-0.3, 0.0};

  Fixture() {
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

  /// A search scored on a global pool of `threads` workers.
  EvolutionSearch::Result run_evolution(std::size_t threads) {
    PoolGuard pool(threads);
    EvolutionSearch::Config cfg;
    cfg.generations = 6;
    cfg.population = 24;
    cfg.parents = 8;
    cfg.seed = 4242;
    EvolutionSearch search(space, accuracy_fn(), model, objective, cfg);
    return search.run();
  }
};

void expect_identical(const EvolutionSearch::Result& serial,
                      const EvolutionSearch::Result& parallel) {
  EXPECT_EQ(serial.best.arch, parallel.best.arch);
  EXPECT_EQ(serial.best.score, parallel.best.score);          // exact
  EXPECT_EQ(serial.best.accuracy, parallel.best.accuracy);    // exact
  EXPECT_EQ(serial.best.latency_ms, parallel.best.latency_ms);

  ASSERT_EQ(serial.per_generation.size(), parallel.per_generation.size());
  for (std::size_t g = 0; g < serial.per_generation.size(); ++g) {
    const auto& a = serial.per_generation[g];
    const auto& b = parallel.per_generation[g];
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.best_score, b.best_score) << "generation " << g;
    EXPECT_EQ(a.mean_score, b.mean_score) << "generation " << g;
    EXPECT_EQ(a.best_latency_ms, b.best_latency_ms) << "generation " << g;
    EXPECT_EQ(a.best_accuracy, b.best_accuracy) << "generation " << g;
  }

  ASSERT_EQ(serial.evaluated.size(), parallel.evaluated.size());
  for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
    EXPECT_EQ(serial.evaluated[i].arch, parallel.evaluated[i].arch)
        << "evaluated " << i;
    EXPECT_EQ(serial.evaluated[i].score, parallel.evaluated[i].score)
        << "evaluated " << i;
  }
}

TEST(EvolutionParallel, ParallelEvalBitIdenticalToSerial) {
  Fixture f;
  const auto serial = f.run_evolution(1);  // one worker: inline scoring
  Fixture f2;  // fresh space/model: identical construction inputs
  const auto parallel = f2.run_evolution(4);
  expect_identical(serial, parallel);
}

TEST(EvolutionParallel, WorkerCountDoesNotChangeResult) {
  Fixture f;
  const auto three = f.run_evolution(3);
  Fixture f2;
  const auto seven = f2.run_evolution(7);
  expect_identical(three, seven);
}

TEST(EvolutionParallel, RepeatedSerialRunsAreIdentical) {
  // Sanity: the comparison above is meaningful only if the search itself
  // is deterministic for a fixed seed.
  Fixture f1, f2;
  expect_identical(f1.run_evolution(1), f2.run_evolution(1));
}

TEST(ShrinkerParallel, SubspaceQualityBitIdenticalToSerial) {
  Fixture f1, f2;
  SpaceShrinker serial(f1.space, f1.accuracy_fn(), f1.model, f1.objective,
                       SpaceShrinker::Config{40, 7});
  SpaceShrinker parallel(f2.space, f2.accuracy_fn(), f2.model, f2.objective,
                         SpaceShrinker::Config{40, 7});

  for (int layer : {5, 4}) {
    SpaceShrinker::LayerDecision a, b;
    {
      PoolGuard pool(1);
      a = serial.shrink_layer(layer);
    }
    {
      PoolGuard pool(5);
      b = parallel.shrink_layer(layer);
    }
    EXPECT_EQ(a.chosen_op, b.chosen_op) << "layer " << layer;
    ASSERT_EQ(a.quality.size(), b.quality.size());
    for (std::size_t i = 0; i < a.quality.size(); ++i) {
      EXPECT_EQ(a.quality[i], b.quality[i])
          << "layer " << layer << " op " << i;
    }
  }
}

}  // namespace
}  // namespace hsconas::core
