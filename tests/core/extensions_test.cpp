// Tests for the extension modules: energy model (§V future work),
// energy-aware objective & EA, learned latency regressor, Pareto search,
// checkpointing and supernet traversal.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/accuracy_surrogate.h"
#include "core/checkpoint.h"
#include "core/energy_model.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/latency_regression.h"
#include "core/pareto.h"
#include "core/supernet.h"
#include "hwsim/registry.h"
#include "util/error.h"
#include "util/stats.h"

namespace hsconas::core {
namespace {

// NOTE: the fixture uses the ImageNet layout-A space, not the proxy one —
// the accuracy surrogate is calibrated for ImageNet-scale compute and
// saturates on proxy-sized networks (documented contract), which would
// degenerate the accuracy axis of the Pareto tests.
struct Fixture {
  SearchSpace space{SearchSpaceConfig::imagenet_layout_a()};
  hwsim::DeviceSimulator device{hwsim::device_by_name("xavier")};
  hwsim::EnergySimulator energy{hwsim::xavier_energy(), device};
  LatencyModel latency{space, device, LatencyModel::Config{16, 20, 31, true}};
  EnergyModel energy_model{space, energy,
                           EnergyModel::Config{16, 20, 31, true}, &latency};
  AccuracySurrogate surrogate{space};

  AccuracyFn accuracy_fn() {
    return score_each(
        [this](const Arch& a) { return surrogate.accuracy(a); });
  }
};

// ------------------------------------------------------------ EnergyModel --

TEST(EnergyModel, PredictionIsLutSumPlusBias) {
  Fixture f;
  util::Rng rng(1);
  const Arch arch = Arch::random(f.space, rng);
  const double uncorrected = f.energy_model.predict_uncorrected_mj(arch);
  EXPECT_NEAR(f.energy_model.predict_mj(arch),
              uncorrected + f.energy_model.bias_mj(), 1e-12);
}

TEST(EnergyModel, BiasCoversStaticPowerAndLinkTraffic) {
  Fixture f;
  EXPECT_GT(f.energy_model.bias_mj(), 0.0);
}

TEST(EnergyModel, TracksSimulatedMeasurements) {
  Fixture f;
  util::Rng rng(2);
  std::vector<double> predicted, measured;
  for (int i = 0; i < 40; ++i) {
    const Arch arch = Arch::random(f.space, rng);
    predicted.push_back(f.energy_model.predict_mj(arch));
    measured.push_back(f.energy_model.true_mj(arch));
  }
  EXPECT_GT(util::pearson(predicted, measured), 0.95);
  EXPECT_LT(util::rmse(predicted, measured) / util::mean(measured), 0.1);
}

TEST(EnergyModel, MonotoneInChannelFactor) {
  Fixture f;
  for (int l = 0; l < f.space.num_layers(); ++l) {
    for (int op = 0; op < 4; ++op) {
      EXPECT_LE(f.energy_model.lut_mj(l, op, 0),
                f.energy_model.lut_mj(l, op, 9));
    }
  }
}

TEST(EnergyModel, ConfigValidation) {
  Fixture f;
  EnergyModel::Config cfg;
  cfg.batch = 0;
  EXPECT_THROW(EnergyModel(f.space, f.energy, cfg), InvalidArgument);
}

// ------------------------------------------------- energy-aware objective --

TEST(Objective, EnergyTermReducesToEq1WhenDisabled) {
  const Objective obj{-0.3, 34.0};
  EXPECT_FALSE(obj.energy_aware());
  EXPECT_DOUBLE_EQ(obj.score(0.75, 30.0, 999.0), obj.score(0.75, 30.0));
}

TEST(Objective, EnergyTermPenalizesDeviation) {
  Objective obj{-0.3, 34.0};
  obj.gamma = -0.2;
  obj.energy_budget_mj = 100.0;
  EXPECT_TRUE(obj.energy_aware());
  EXPECT_DOUBLE_EQ(obj.score(0.75, 34.0, 100.0), 0.75);
  EXPECT_DOUBLE_EQ(obj.score(0.75, 34.0, 150.0), 0.75 - 0.2 * 0.5);
}

TEST(EvolutionSearch, EnergyAwareSearchRespectsEnergyBudget) {
  Fixture f;
  // Budget set to the median energy of random archs so it binds.
  util::Rng rng(3);
  std::vector<double> energies, latencies;
  for (int i = 0; i < 30; ++i) {
    const Arch arch = Arch::random(f.space, rng);
    energies.push_back(f.energy_model.predict_mj(arch));
    latencies.push_back(f.latency.predict_ms(arch));
  }
  Objective obj;
  obj.beta = -0.3;
  obj.constraint_ms = util::percentile(latencies, 50.0);
  obj.gamma = -0.3;
  obj.energy_budget_mj = util::percentile(energies, 35.0);

  EvolutionSearch::Config cfg;
  cfg.generations = 8;
  cfg.population = 24;
  cfg.parents = 8;
  cfg.seed = 4;
  EvolutionSearch search(f.space, f.accuracy_fn(), f.latency,
                         f.energy_model, obj, cfg);
  const auto result = search.run();
  EXPECT_GT(result.best.energy_mj, 0.0);
  EXPECT_NEAR(result.best.energy_mj, obj.energy_budget_mj,
              obj.energy_budget_mj * 0.15);
}

TEST(EvolutionSearch, EnergyModelWithoutGammaThrows) {
  Fixture f;
  const Objective obj{-0.3, 10.0};  // gamma defaults to 0
  EvolutionSearch::Config cfg;
  EXPECT_THROW(EvolutionSearch(f.space, f.accuracy_fn(), f.latency,
                               f.energy_model, obj, cfg),
               InvalidArgument);
}

// -------------------------------------------------------- LatencyRegressor --

TEST(SolveRidge, RecoversExactSolution) {
  // A = [[2,1],[1,3]], b = A·[1,-2]ᵀ = [0,-5]ᵀ.
  const auto x = solve_ridge({{2, 1}, {1, 3}}, {0, -5}, 0.0);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], -2.0, 1e-9);
}

TEST(SolveRidge, LambdaShrinksSolution) {
  const auto x0 = solve_ridge({{1, 0}, {0, 1}}, {10, 10}, 0.0);
  const auto x1 = solve_ridge({{1, 0}, {0, 1}}, {10, 10}, 1.0);
  EXPECT_NEAR(x0[0], 10.0, 1e-9);
  EXPECT_NEAR(x1[0], 5.0, 1e-9);
}

TEST(SolveRidge, SingularWithoutLambdaThrows) {
  EXPECT_THROW(solve_ridge({{1, 1}, {1, 1}}, {1, 1}, 0.0), InvalidArgument);
  EXPECT_NO_THROW(solve_ridge({{1, 1}, {1, 1}}, {1, 1}, 0.1));
}

TEST(LatencyRegressor, LearnsTheSimulator) {
  Fixture f;
  LatencyRegressor::Config cfg;
  cfg.train_samples = 400;
  cfg.batch = 16;
  cfg.seed = 7;
  const LatencyRegressor regressor(f.space, f.device, cfg);
  EXPECT_EQ(regressor.num_features(),
            1 + 2 * f.space.num_layers() * f.space.config().num_ops);

  util::Rng rng(8);
  std::vector<double> predicted, measured;
  for (int i = 0; i < 50; ++i) {
    const Arch arch = Arch::random(f.space, rng);
    predicted.push_back(regressor.predict_ms(arch));
    measured.push_back(f.device.network_latency_ms(
        lower_network(arch, f.space), cfg.batch));
  }
  EXPECT_GT(util::pearson(predicted, measured), 0.95);
  EXPECT_LT(util::rmse(predicted, measured) / util::mean(measured), 0.1);
}

TEST(LatencyRegressor, Validation) {
  Fixture f;
  LatencyRegressor::Config cfg;
  cfg.train_samples = 1;
  EXPECT_THROW(LatencyRegressor(f.space, f.device, cfg), InvalidArgument);
}

// ------------------------------------------------------------ ParetoSearch --

TEST(ParetoSearch, DominanceDefinition) {
  ParetoSearch::Candidate a, b;
  a.accuracy = 0.8;
  a.latency_ms = 10;
  b.accuracy = 0.7;
  b.latency_ms = 12;
  EXPECT_TRUE(ParetoSearch::dominates(a, b));
  EXPECT_FALSE(ParetoSearch::dominates(b, a));
  b.accuracy = 0.9;  // now a trade-off pair
  EXPECT_FALSE(ParetoSearch::dominates(a, b));
  EXPECT_FALSE(ParetoSearch::dominates(b, a));
  ParetoSearch::Candidate equal = a;
  EXPECT_FALSE(ParetoSearch::dominates(a, equal));
}

TEST(ParetoSearch, NonDominatedFilter) {
  std::vector<ParetoSearch::Candidate> pop(3);
  pop[0].accuracy = 0.8;
  pop[0].latency_ms = 10;
  pop[1].accuracy = 0.9;
  pop[1].latency_ms = 20;
  pop[2].accuracy = 0.7;
  pop[2].latency_ms = 15;  // dominated by pop[0]
  const auto nd = ParetoSearch::non_dominated(pop);
  EXPECT_EQ(nd, (std::vector<std::size_t>{0, 1}));
}

TEST(ParetoSearch, FrontIsMutuallyNonDominatedAndSorted) {
  Fixture f;
  ParetoSearch::Config cfg;
  cfg.generations = 8;
  cfg.population = 30;
  cfg.seed = 9;
  ParetoSearch search(f.space, f.accuracy_fn(), f.latency, cfg);
  const auto result = search.run();
  ASSERT_GE(result.front.size(), 3u);
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    for (std::size_t j = 0; j < result.front.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(
            ParetoSearch::dominates(result.front[i], result.front[j]));
      }
    }
  }
  for (std::size_t i = 1; i < result.front.size(); ++i) {
    EXPECT_GE(result.front[i].latency_ms, result.front[i - 1].latency_ms);
    // Sorted by latency, accuracy must also be non-decreasing on a front.
    EXPECT_GE(result.front[i].accuracy, result.front[i - 1].accuracy);
  }
}

TEST(ParetoSearch, CoversWiderLatencyRangeThanSingleT) {
  Fixture f;
  ParetoSearch::Config cfg;
  cfg.generations = 8;
  cfg.population = 30;
  cfg.seed = 10;
  ParetoSearch search(f.space, f.accuracy_fn(), f.latency, cfg);
  const auto result = search.run();
  const double span = result.front.back().latency_ms -
                      result.front.front().latency_ms;
  EXPECT_GT(span, result.front.front().latency_ms * 0.3);
  EXPECT_EQ(result.front_size_history.size(), 8u);
}

TEST(ParetoSearch, Validation) {
  Fixture f;
  ParetoSearch::Config cfg;
  cfg.population = 2;
  EXPECT_THROW(ParetoSearch(f.space, f.accuracy_fn(), f.latency, cfg),
               InvalidArgument);
}

// -------------------------------------------------------------- Checkpoint --

TEST(Checkpoint, RoundTripsSupernetWeights) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 1));
  Supernet original(space, 11);
  Supernet other(space, 99);  // different init

  const std::string path = testing::TempDir() + "/hsconas_ckpt_test.bin";
  save_parameters(original.parameters(), path);
  load_parameters(other.parameters(), path);

  const auto pa = original.parameters();
  const auto pb = other.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    for (long j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value.flat()[static_cast<std::size_t>(j)],
                pb[i]->value.flat()[static_cast<std::size_t>(j)]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadedNetworkReproducesOutputs) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 1));
  util::Rng rng(12);
  Arch arch = Arch::random(space, rng);
  Supernet a(space, 21, arch);
  Supernet b(space, 77, arch);
  const std::string path = testing::TempDir() + "/hsconas_ckpt_test2.bin";
  save_parameters(a.parameters(), path);
  load_parameters(b.parameters(), path);

  tensor::Tensor x({1, 3, 8, 8});
  x.fill(0.3f);
  a.set_mode(nn::Mode::kEval);
  b.set_mode(nn::Mode::kEval);
  const tensor::Tensor ya = a.forward(x);
  const tensor::Tensor yb = b.forward(x);
  for (long i = 0; i < ya.numel(); ++i) {
    // BN running stats are not parameters, so outputs agree only through
    // the eval-mode statistics both nets share by construction (fresh 0/1).
    EXPECT_FLOAT_EQ(ya.flat()[static_cast<std::size_t>(i)],
                    yb.flat()[static_cast<std::size_t>(i)]);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchesFailLoudly) {
  const SearchSpace small(SearchSpaceConfig::proxy(4, 8, 1));
  const SearchSpace big(SearchSpaceConfig::proxy(4, 8, 2));
  Supernet a(small, 1);
  Supernet b(big, 1);
  const std::string path = testing::TempDir() + "/hsconas_ckpt_test3.bin";
  save_parameters(a.parameters(), path);
  EXPECT_THROW(load_parameters(b.parameters(), path), Error);
  EXPECT_THROW(load_parameters(a.parameters(), "/no/such/file"), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- visit --

TEST(Supernet, VisitReachesBatchNorms) {
  const SearchSpace space(SearchSpaceConfig::proxy(4, 8, 1));
  Supernet net(space, 1);
  int bn_count = 0;
  net.visit([&](nn::Module& m) {
    if (dynamic_cast<nn::BatchNorm2d*>(&m) != nullptr) ++bn_count;
  });
  // stem BN + head BN + every choice block's BNs.
  EXPECT_GT(bn_count, 10);
}

}  // namespace
}  // namespace hsconas::core
