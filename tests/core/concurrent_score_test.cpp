// Candidates scored concurrently on one shared supernet. In score mode a
// supernet forward writes no module state — no channel factor, no BN
// running statistic, no mode, no backward state — so scoring N candidates
// at once, from raw threads or across the global pool, must give the bits
// that scoring them one after another gives, and leave the network as it
// found it. Both operator families, global pools of 1 and 3 workers, on a
// supernet that has just taken a train step. An evolutionary search scored
// on the supernet must likewise not depend on the pool size. Labelled
// `search`: the TSan stage of tools/ci_checks.sh re-runs it.

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <thread>
#include <vector>

#include "core/evolution.h"
#include "core/supernet.h"
#include "core/trainer.h"
#include "hwsim/registry.h"
#include "nn/batchnorm.h"
#include "obs/metrics.h"
#include "tests/core/pool_guard.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hsconas::core {
namespace {

using tensor::Tensor;
using testutil::PoolGuard;

constexpr std::size_t kBatch = 18, kBatches = 2;

data::SyntheticDataset proxy_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 6;
  cfg.train_size = 36;
  cfg.val_size = 36;
  cfg.image_size = 12;
  cfg.seed = 43;
  return data::SyntheticDataset(cfg);
}

/// Every BatchNorm running mean and variance, in visit order.
std::vector<float> running_stats(Supernet& net) {
  std::vector<float> out;
  net.visit([&](nn::Module& m) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      for (const Tensor* t : {&bn->running_mean(), &bn->running_var()}) {
        out.insert(out.end(), t->data(), t->data() + t->numel());
      }
    }
  });
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A supernet after one train step on a random path, in score mode.
struct TrainedSupernet {
  SearchSpace space;
  data::SyntheticDataset dataset = proxy_dataset();
  Supernet net{space, 5};

  explicit TrainedSupernet(nn::OpFamily family)
      : space(SearchSpaceConfig::proxy(6, 12, 1).with_family(family)) {
    TrainConfig tc;
    tc.batch_size = kBatch;
    tc.seed = 3;
    SupernetTrainer trainer(net, dataset, tc);
    util::Rng rng(8);
    data::DataLoader loader(dataset, kBatch, /*train=*/true, /*seed=*/1);
    trainer.step(loader.batch(0), Arch::random(space, rng), 0.05);
    net.set_mode(nn::Mode::kScore);
  }

  double score(const Arch& arch) {
    return net.evaluate(dataset, arch, kBatch, kBatches);
  }
};

struct ScoreCase {
  nn::OpFamily family;
  std::size_t threads;
};

// Names the case in test listings (the default printer would dump the
// struct's bytes, padding included).
void PrintTo(const ScoreCase& c, std::ostream* os) {
  *os << nn::family_name(c.family) << " at pool size " << c.threads;
}

class ConcurrentScore : public ::testing::TestWithParam<ScoreCase> {};

TEST_P(ConcurrentScore, EqualsSerialScoringAfterTrainStep) {
  const ScoreCase param = GetParam();
  PoolGuard pool(param.threads);
  TrainedSupernet s(param.family);
  util::Rng rng(29);
  std::vector<Arch> archs;
  for (int i = 0; i < 6; ++i) archs.push_back(Arch::random(s.space, rng));

  const std::vector<float> stats = running_stats(s.net);
  obs::Counter& kept = obs::counter("hsconas.nn.backward_state_bytes");
  const std::uint64_t kept_before = kept.value();

  std::vector<double> serial;
  for (const Arch& arch : archs) serial.push_back(s.score(arch));

  // One raw thread per candidate, all at once.
  std::vector<double> threaded(archs.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < archs.size(); ++i) {
      threads.emplace_back([&, i] { threaded[i] = s.score(archs[i]); });
    }
    for (std::thread& t : threads) t.join();
  }
  // The way the search fans out: across the global pool.
  std::vector<double> pooled(archs.size());
  util::ThreadPool::global().parallel_for(
      archs.size(), [&](std::size_t i) { pooled[i] = s.score(archs[i]); });

  for (std::size_t i = 0; i < archs.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "candidate " << i;
    EXPECT_EQ(serial[i], pooled[i]) << "candidate " << i;
  }
  EXPECT_TRUE(same_bits(stats, running_stats(s.net)));
  EXPECT_EQ(kept_before, kept.value());
  EXPECT_EQ(nn::Mode::kScore, s.net.mode());
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPools, ConcurrentScore,
    ::testing::Values(ScoreCase{nn::OpFamily::kShuffleV2, 1},
                      ScoreCase{nn::OpFamily::kShuffleV2, 3},
                      ScoreCase{nn::OpFamily::kMbConv, 1},
                      ScoreCase{nn::OpFamily::kMbConv, 3}),
    [](const ::testing::TestParamInfo<ScoreCase>& p) {
      return std::string(nn::family_name(p.param.family)) + "_pool" +
             std::to_string(p.param.threads);
    });

TEST(ConcurrentScore, EvolutionOnSupernetSameAtPoolSizesOneAndThree) {
  const auto search = [](std::size_t threads) {
    PoolGuard pool(threads);
    TrainedSupernet s(nn::OpFamily::kShuffleV2);
    const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
    const LatencyModel latency(s.space, device,
                               LatencyModel::Config{8, 5, 1, false});
    EvolutionSearch::Config cfg;
    cfg.generations = 2;
    cfg.population = 6;
    cfg.parents = 3;
    cfg.seed = 12;
    EvolutionSearch evo(
        s.space,
        [&s](const std::vector<Arch>& archs) {
          return s.net.evaluate(s.dataset, archs, kBatch, /*max_batches=*/1);
        },
        latency, Objective{-0.3, 1.0}, cfg);
    return evo.run();
  };
  const EvolutionSearch::Result one = search(1);
  const EvolutionSearch::Result three = search(3);
  EXPECT_EQ(one.best.arch, three.best.arch);
  EXPECT_EQ(one.best.score, three.best.score);
  ASSERT_EQ(one.evaluated.size(), three.evaluated.size());
  for (std::size_t i = 0; i < one.evaluated.size(); ++i) {
    EXPECT_EQ(one.evaluated[i].arch, three.evaluated[i].arch) << i;
    EXPECT_EQ(one.evaluated[i].accuracy, three.evaluated[i].accuracy) << i;
  }
}

}  // namespace
}  // namespace hsconas::core
