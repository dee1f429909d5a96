// Batched candidate scoring: Supernet::evaluate over many archs runs the
// stem once per evaluation batch and layer 0 once per distinct (op, factor)
// gene, then fans every arch's remaining layers out across the pool. Each
// arch must still get exactly the top-1 a per-arch loop of
// Supernet::forward + cross_entropy gives it — for both operator families,
// archs that share a layer-0 gene, share none, or are exact duplicates, a
// mixed dtype gene, the full split (partial last batch) and a prefix of it,
// at global pools of 1, 2 and 4. A small proxy search scored per arch by
// hand must likewise equal the Pipeline's batched run. Labelled `search`:
// the TSan stage of tools/ci_checks.sh re-runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/supernet.h"
#include "core/trainer.h"
#include "hwsim/registry.h"
#include "obs/metrics.h"
#include "tests/core/pool_guard.h"
#include "util/error.h"
#include "util/rng.h"

namespace hsconas::core {
namespace {

using testutil::PoolGuard;

// 90 validation images at batch 36: two full batches and a last one of 18.
constexpr std::size_t kBatch = 36;

data::SyntheticDataset dataset(int train_size = 36) {
  data::SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.train_size = train_size;
  cfg.val_size = 90;
  cfg.image_size = 12;
  cfg.seed = 43;
  return data::SyntheticDataset(cfg);
}

/// Top-1 the per-arch way: one forward and one cross_entropy per batch.
double per_arch_top1(Supernet& net, const data::SyntheticDataset& ds,
                     const Arch& arch, std::size_t batch_size,
                     std::size_t max_batches) {
  data::DataLoader loader(ds, batch_size, /*train=*/false, /*seed=*/0);
  const std::size_t batches =
      max_batches == 0 ? loader.num_batches()
                       : std::min(max_batches, loader.num_batches());
  std::size_t correct = 0, total = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const data::Batch batch = loader.batch(b);
    const tensor::Tensor logits = net.forward(batch.images, arch);
    correct += nn::cross_entropy(logits, batch.labels).correct_top1;
    total += batch.labels.size();
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

/// A quantization-aware proxy supernet after one train step on a random
/// path, in score mode.
struct ScoredSupernet {
  SearchSpace space;
  data::SyntheticDataset data = dataset();
  Supernet net{space, 5};

  static SearchSpaceConfig config(nn::OpFamily family) {
    SearchSpaceConfig cfg =
        SearchSpaceConfig::proxy(6, 12, 1).with_family(family);
    cfg.search_quantization = true;
    return cfg;
  }

  explicit ScoredSupernet(nn::OpFamily family) : space(config(family)) {
    TrainConfig tc;
    tc.batch_size = kBatch;
    tc.seed = 3;
    SupernetTrainer trainer(net, data, tc);
    util::Rng rng(8);
    data::DataLoader loader(data, kBatch, /*train=*/true, /*seed=*/1);
    trainer.step(loader.batch(0), Arch::random(space, rng), 0.05);
    net.set_mode(nn::Mode::kScore);
  }
};

/// Named candidate batches covering every way archs can share a prefix.
std::vector<std::pair<std::string, std::vector<Arch>>> arch_sets(
    const SearchSpace& space) {
  util::Rng rng(29);
  const std::vector<int> ops = space.allowed_ops(0);
  const std::vector<int> factors = space.allowed_factors(0);
  std::vector<std::pair<std::string, std::vector<Arch>>> sets;

  std::vector<Arch> shared;  // one layer-0 gene, different suffixes
  for (int i = 0; i < 5; ++i) {
    Arch a = Arch::random(space, rng);
    a.ops[0] = ops[1 % ops.size()];
    a.factors[0] = factors[2 % factors.size()];
    shared.push_back(std::move(a));
  }
  sets.emplace_back("shared_layer0", shared);

  std::vector<Arch> distinct;  // every layer-0 gene different
  for (std::size_t k = 0; k < ops.size(); ++k) {
    Arch a = Arch::random(space, rng);
    a.ops[0] = ops[k];
    a.factors[0] = factors[(3 * k) % factors.size()];
    distinct.push_back(std::move(a));
  }
  sets.emplace_back("distinct_layer0", distinct);

  const Arch a = Arch::random(space, rng), b = Arch::random(space, rng);
  sets.emplace_back("duplicates", std::vector<Arch>{a, b, a, a, b});

  // Both dtypes of one genome, next to genomes of either dtype: the fp32
  // supernet scores both alike, so the dtype gene must not split groups.
  Arch f32 = Arch::random(space, rng);
  f32.quant = 0;
  Arch i8 = f32;
  i8.quant = 1;
  Arch other = Arch::random(space, rng);
  other.quant = 1;
  other.ops[0] = f32.ops[0];
  other.factors[0] = f32.factors[0];
  sets.emplace_back("mixed_dtype",
                    std::vector<Arch>{f32, i8, other,
                                      Arch::random(space, rng)});

  std::vector<Arch> mixed;  // a generation-like mix
  for (int i = 0; i < 12; ++i) mixed.push_back(Arch::random(space, rng));
  sets.emplace_back("random", mixed);
  return sets;
}

std::size_t layer0_genes(const std::vector<Arch>& archs) {
  std::set<std::pair<int, int>> genes;
  for (const Arch& a : archs) genes.insert({a.ops[0], a.factors[0]});
  return genes.size();
}

struct BatchCase {
  nn::OpFamily family;
  std::size_t threads;
  std::size_t max_batches;
};

void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << nn::family_name(c.family) << " at pool size " << c.threads
      << ", max_batches " << c.max_batches;
}

class BatchScore : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchScore, EqualsPerArchForwardBitForBit) {
  const BatchCase param = GetParam();
  PoolGuard pool(param.threads);
  ScoredSupernet s(param.family);
  const std::size_t batches = param.max_batches == 0 ? 3 : param.max_batches;
  obs::Counter& forwards = obs::counter("hsconas.supernet.forwards");
  obs::Counter& reuses = obs::counter("hsconas.supernet.prefix_reuses");

  for (const auto& [name, archs] : arch_sets(s.space)) {
    SCOPED_TRACE(name);
    const std::uint64_t forwards_before = forwards.value();
    const std::uint64_t reuses_before = reuses.value();
    const std::vector<double> batched =
        s.net.evaluate(s.data, archs, kBatch, param.max_batches);
    EXPECT_EQ(batches * archs.size(), forwards.value() - forwards_before);
    EXPECT_EQ(batches * (2 * archs.size() - 1 - layer0_genes(archs)),
              reuses.value() - reuses_before);

    ASSERT_EQ(archs.size(), batched.size());
    for (std::size_t i = 0; i < archs.size(); ++i) {
      EXPECT_EQ(per_arch_top1(s.net, s.data, archs[i], kBatch,
                              param.max_batches),
                batched[i])
          << "arch " << i << ": " << archs[i].to_string(s.space);
    }
  }
  EXPECT_EQ(nn::Mode::kScore, s.net.mode());
}

std::vector<BatchCase> batch_cases() {
  std::vector<BatchCase> cases;
  for (const nn::OpFamily family :
       {nn::OpFamily::kShuffleV2, nn::OpFamily::kMbConv}) {
    for (const std::size_t threads : {1, 2, 4}) {
      for (const std::size_t max_batches : {0, 2}) {
        cases.push_back({family, threads, max_batches});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesPoolsAndSplits, BatchScore, ::testing::ValuesIn(batch_cases()),
    [](const ::testing::TestParamInfo<BatchCase>& p) {
      return std::string(nn::family_name(p.param.family)) + "_pool" +
             std::to_string(p.param.threads) + "_batches" +
             std::to_string(p.param.max_batches);
    });

TEST(BatchScore, ThrowsOutsideScoreModeAndScoresNothingWhenEmpty) {
  ScoredSupernet s(nn::OpFamily::kShuffleV2);
  const std::vector<Arch> archs = arch_sets(s.space).front().second;
  EXPECT_TRUE(s.net.evaluate(s.data, std::vector<Arch>{}, kBatch).empty());
  for (const nn::Mode mode :
       {nn::Mode::kTrain, nn::Mode::kEval, nn::Mode::kEvalFused}) {
    s.net.set_mode(mode);
    EXPECT_THROW(s.net.evaluate(s.data, archs, kBatch, 1), Error);
  }
}

// ---- end to end -------------------------------------------------------------

PipelineConfig small_proxy_config() {
  PipelineConfig cfg;
  cfg.space = SearchSpaceConfig::proxy(6, 12, 1);  // 3 layers
  cfg.device = "edge";
  cfg.constraint_ms = 1.2;
  cfg.initial_epochs = 1;
  cfg.tune_epochs = 1;
  cfg.shrink_layers_per_stage = 1;
  cfg.shrink.samples_per_subspace = 6;
  cfg.evolution.generations = 2;
  cfg.evolution.population = 10;
  cfg.evolution.parents = 4;
  cfg.train.batch_size = kBatch;
  cfg.train.lr = 0.08;
  cfg.eval_batches = 0;  // the full split, partial last batch included
  cfg.seed = 5;
  return cfg;
}

/// Pipeline::run's Fig. 1 flow rebuilt from its parts, with the shrinker
/// and the EA scoring each candidate on its own through score_each.
PipelineResult run_scoring_each(const PipelineConfig& cfg,
                                const data::SyntheticDataset& ds) {
  SearchSpace space(cfg.space);
  const hwsim::DeviceSimulator device(hwsim::device_by_name(cfg.device));
  LatencyModel::Config latency_cfg = cfg.latency;
  latency_cfg.seed ^= cfg.seed;
  LatencyModel model(space, device, latency_cfg);
  const Objective objective{cfg.beta, cfg.constraint_ms};

  Supernet net(space, cfg.seed ^ 0x5e7ull);
  TrainConfig tc = cfg.train;
  tc.seed ^= cfg.seed;
  SupernetTrainer trainer(net, ds, tc);
  const AccuracyFn accuracy = score_each([&](const Arch& a) {
    return per_arch_top1(net, ds, a, tc.batch_size, cfg.eval_batches);
  });
  SpaceShrinker::Config shrink_cfg = cfg.shrink;
  shrink_cfg.seed ^= cfg.seed;
  SpaceShrinker shrinker(space, accuracy, model, objective, shrink_cfg);
  EvolutionSearch::Config evo_cfg = cfg.evolution;
  evo_cfg.seed ^= cfg.seed;
  EvolutionSearch search(space, accuracy, model, objective, evo_cfg);

  PipelineResult r;
  r.constraint_ms = cfg.constraint_ms;
  r.log10_space_initial = space.log10_size();
  const int last = space.num_layers() - 1;
  trainer.run(cfg.initial_epochs);
  net.set_mode(nn::Mode::kScore);
  r.stage1_decisions = shrinker.shrink_stage(last, 1);
  r.log10_space_after_stage1 = space.log10_size();
  trainer.run(cfg.tune_epochs, cfg.tune_lr_stage1);
  net.set_mode(nn::Mode::kScore);
  r.stage2_decisions = shrinker.shrink_stage(last - 1, 1);
  r.log10_space_after_stage2 = space.log10_size();
  trainer.run(cfg.tune_epochs, cfg.tune_lr_stage2);
  net.set_mode(nn::Mode::kScore);
  r.evolution = search.run();
  r.train_history = trainer.history();
  r.best_arch = r.evolution.best.arch;
  r.best_score = r.evolution.best.score;
  r.best_accuracy = r.evolution.best.accuracy;
  r.predicted_latency_ms = r.evolution.best.latency_ms;
  r.measured_latency_ms = model.measure_ms(r.best_arch);
  return r;
}

void expect_same_decisions(
    const std::vector<SpaceShrinker::LayerDecision>& a,
    const std::vector<SpaceShrinker::LayerDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].layer, b[i].layer);
    EXPECT_EQ(a[i].chosen_op, b[i].chosen_op);
    EXPECT_EQ(a[i].quality, b[i].quality);  // exact
    EXPECT_EQ(a[i].subspaces_evaluated, b[i].subspaces_evaluated);
  }
}

TEST(BatchScore, PipelineEqualsScoringEachArchOnItsOwn) {
  PoolGuard pool(4);
  const data::SyntheticDataset ds = dataset(/*train_size=*/72);
  const PipelineConfig cfg = small_proxy_config();
  Pipeline pipeline(cfg);
  const PipelineResult batched = pipeline.run(&ds);
  const PipelineResult each = run_scoring_each(cfg, ds);

  EXPECT_EQ(batched.best_arch, each.best_arch);
  EXPECT_EQ(batched.best_score, each.best_score);
  EXPECT_EQ(batched.best_accuracy, each.best_accuracy);
  EXPECT_EQ(batched.predicted_latency_ms, each.predicted_latency_ms);
  EXPECT_EQ(batched.measured_latency_ms, each.measured_latency_ms);
  EXPECT_EQ(batched.constraint_ms, each.constraint_ms);
  EXPECT_EQ(batched.log10_space_initial, each.log10_space_initial);
  EXPECT_EQ(batched.log10_space_after_stage1, each.log10_space_after_stage1);
  EXPECT_EQ(batched.log10_space_after_stage2, each.log10_space_after_stage2);
  expect_same_decisions(batched.stage1_decisions, each.stage1_decisions);
  expect_same_decisions(batched.stage2_decisions, each.stage2_decisions);

  ASSERT_EQ(batched.train_history.size(), each.train_history.size());
  for (std::size_t i = 0; i < each.train_history.size(); ++i) {
    EXPECT_EQ(batched.train_history[i].loss, each.train_history[i].loss);
    EXPECT_EQ(batched.train_history[i].top1, each.train_history[i].top1);
  }
  const EvolutionSearch::Result& a = batched.evolution;
  const EvolutionSearch::Result& b = each.evolution;
  ASSERT_EQ(a.per_generation.size(), b.per_generation.size());
  for (std::size_t g = 0; g < a.per_generation.size(); ++g) {
    EXPECT_EQ(a.per_generation[g].best_score, b.per_generation[g].best_score);
    EXPECT_EQ(a.per_generation[g].mean_score, b.per_generation[g].mean_score);
  }
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].arch, b.evaluated[i].arch) << i;
    EXPECT_EQ(a.evaluated[i].accuracy, b.evaluated[i].accuracy) << i;
    EXPECT_EQ(a.evaluated[i].score, b.evaluated[i].score) << i;
  }
}

}  // namespace
}  // namespace hsconas::core
