// Fig. 5 / Fig. 6-left reproduction: progressive space shrinking (§III-C)
// at proxy scale with a *real* weight-sharing supernet trained on the
// synthetic dataset.
//
// Two identically-seeded supernets run side by side:
//   * "shrunk": initial training → shrink stage 1 (back-to-front, Q of
//     Definition 1) → tune → shrink stage 2 → tune;
//   * "naive": the same total epochs of continued training in the full
//     space (the paper's 'naive training' control).
// After each phase we report the mean supernet accuracy over N candidate
// archs sampled from each net's current space — the paper's observation is
// that the shrunk supernet's accuracy is higher after each stage. We also
// print the space-size ledger (~3 orders of magnitude per stage) and the
// subspace-evaluation count (K×layers, not K^layers).

#include <cstdio>
#include <vector>

#include "core/latency_model.h"
#include "core/space_shrinking.h"
#include "core/supernet.h"
#include "core/trainer.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

namespace {

double mean_candidate_accuracy(core::SupernetTrainer& trainer,
                               const core::SearchSpace& space, int n,
                               std::uint64_t seed, std::size_t batches) {
  util::Rng rng(seed);
  std::vector<core::Arch> archs;
  for (int i = 0; i < n; ++i) archs.push_back(core::Arch::random(space, rng));
  double total = 0.0;
  for (double acc : trainer.evaluate(archs, batches)) total += acc;
  return total / n;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("Fig. 5 / Fig. 6-left: progressive space shrinking");
  cli.add_option("initial-epochs", "6",
                 "supernet pre-training epochs (paper: 100)");
  cli.add_option("tune-epochs", "3",
                 "tuning epochs after each shrink (paper: 15)");
  cli.add_option("blocks-per-stage", "2", "proxy supernet depth knob");
  cli.add_option("image-size", "16", "proxy image size");
  cli.add_option("train-size", "480", "proxy training set size");
  cli.add_option("eval-archs", "8", "candidate archs per accuracy probe");
  cli.add_option("shrink-samples", "25", "N of Definition 1");
  cli.add_flag("fair-sampling",
               "use strict-fair operator sampling (FairNAS-style) instead "
               "of uniform single-path sampling for both supernets");
  cli.add_option("seed", "5", "seed");
  cli.add_option("csv", "fig5.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto space_cfg = core::SearchSpaceConfig::proxy(
      10, cli.get_int("image-size"),
      static_cast<int>(cli.get_int("blocks-per-stage")));

  data::SyntheticConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = static_cast<int>(cli.get_int("image-size"));
  data_cfg.train_size = static_cast<int>(cli.get_int("train-size"));
  data_cfg.val_size = data_cfg.train_size / 2;
  data_cfg.seed = seed ^ 0xDA7Aull;
  const data::SyntheticDataset dataset(data_cfg);

  core::TrainConfig train_cfg;
  train_cfg.batch_size = 48;
  train_cfg.lr = 0.08;
  train_cfg.seed = seed;
  train_cfg.fair_sampling = cli.get_bool("fair-sampling");

  // Two supernets, identical init.
  core::SearchSpace shrunk_space(space_cfg);
  core::SearchSpace naive_space(space_cfg);
  core::Supernet shrunk_net(shrunk_space, seed ^ 0x5e7ull);
  core::Supernet naive_net(naive_space, seed ^ 0x5e7ull);
  core::SupernetTrainer shrunk(shrunk_net, dataset, train_cfg);
  core::SupernetTrainer naive(naive_net, dataset, train_cfg);

  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  core::LatencyModel::Config lat_cfg;
  lat_cfg.batch = device.profile().default_batch;
  lat_cfg.seed = seed;
  const core::LatencyModel latency(shrunk_space, device, lat_cfg);

  // Mid-range constraint so F's latency term discriminates.
  double constraint;
  {
    util::Rng rng(seed ^ 1);
    double sum = 0.0;
    for (int i = 0; i < 20; ++i) {
      sum += latency.predict_ms(core::Arch::random(shrunk_space, rng));
    }
    constraint = sum / 20.0;
  }
  const core::Objective objective{-0.3, constraint};

  const int eval_archs = static_cast<int>(cli.get_int("eval-archs"));
  const int initial_epochs = static_cast<int>(cli.get_int("initial-epochs"));
  const int tune_epochs = static_cast<int>(cli.get_int("tune-epochs"));
  const int L = shrunk_space.num_layers();
  const int per_stage = std::min(4, L / 2);

  util::Table table({"phase", "shrunk supernet acc", "naive acc",
                     "log10 |A| (shrunk)", "log10 |A| (naive)"});
  util::CsvWriter csv(cli.get("csv"));
  csv.row(std::vector<std::string>{"phase", "shrunk_acc", "naive_acc",
                                   "shrunk_log10", "naive_log10"});
  // Scoring needs the supernets in score mode; every training step puts
  // them back in train mode.
  const auto enter_scoring = [&] {
    shrunk_net.set_mode(nn::Mode::kScore);
    naive_net.set_mode(nn::Mode::kScore);
  };
  const auto record = [&](const std::string& phase) {
    enter_scoring();
    const double sa = mean_candidate_accuracy(shrunk, shrunk_space,
                                              eval_archs, seed ^ 0xE, 3);
    const double na = mean_candidate_accuracy(naive, naive_space, eval_archs,
                                              seed ^ 0xE, 3);
    table.add_row({phase, util::format("%.3f", sa), util::format("%.3f", na),
                   util::format("%.1f", shrunk_space.log10_size()),
                   util::format("%.1f", naive_space.log10_size())});
    csv.row(std::vector<std::string>{
        phase, util::format("%.4f", sa), util::format("%.4f", na),
        util::format("%.2f", shrunk_space.log10_size()),
        util::format("%.2f", naive_space.log10_size())});
  };

  std::fprintf(stderr, "training both supernets for %d epochs...\n",
               initial_epochs);
  shrunk.run(initial_epochs);
  naive.run(initial_epochs);
  record("after initial training");

  core::SpaceShrinker shrinker(
      shrunk_space,
      [&](const std::vector<core::Arch>& archs) {
        return shrunk.evaluate(archs, 2);
      },
      latency,
      objective,
      core::SpaceShrinker::Config{
          static_cast<int>(cli.get_int("shrink-samples")), seed ^ 0x51});

  std::fprintf(stderr, "stage 1: shrinking layers %d..%d\n", L - 1,
               L - per_stage);
  enter_scoring();
  shrinker.shrink_stage(L - 1, per_stage);
  shrunk.run(tune_epochs, 0.01);
  naive.run(tune_epochs, 0.01);
  record("after 1st shrink + tune");

  std::fprintf(stderr, "stage 2: shrinking layers %d..%d\n",
               L - 1 - per_stage, L - 2 * per_stage);
  enter_scoring();
  shrinker.shrink_stage(L - 1 - per_stage, per_stage);
  shrunk.run(tune_epochs, 0.0035);
  naive.run(tune_epochs, 0.0035);
  record("after 2nd shrink + tune");

  std::printf(
      "FIG 5 / FIG 6-left: progressive space shrinking vs naive training\n"
      "(proxy supernet, %d layers, latency constraint %.1f ms on xavier)\n"
      "%s\n"
      "subspace evaluations: %d (= K x layers per stage; joint evaluation "
      "of one 4-layer stage would need 5^4 = 625)\n"
      "raw rows written to %s\n",
      L, constraint, table.render().c_str(),
      shrinker.total_subspaces_evaluated(), cli.get("csv").c_str());
  return 0;
}
