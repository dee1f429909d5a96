// Fig. 6 (top & bottom) reproduction: the evolutionary search on the edge
// device under the paper's 34 ms constraint.
//
//  * top:    best objective / best-candidate latency per generation — the
//            paper's run converges to 34.3 ms against T = 34 ms;
//  * bottom: histogram of the latencies of every candidate the EA
//            evaluated, concentrated around T, against a uniform-random
//            sample of the space for contrast.

#include <cstdio>
#include <vector>

#include "core/accuracy_surrogate.h"
#include "core/analysis.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/search_space.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/string_util.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Fig. 6: evolutionary search under the 34 ms edge budget");
  cli.add_option("device", "xavier", "target device");
  cli.add_option("constraint", "34", "latency constraint T in ms");
  cli.add_option("generations", "20", "EA generations (paper: 20)");
  cli.add_option("population", "50", "population size (paper: 50)");
  cli.add_option("parents", "20", "parent pool size (paper: 20)");
  cli.add_option("seed", "6", "seed");
  cli.add_option("csv", "fig6.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(
      hwsim::device_by_name(cli.get("device")));
  core::LatencyModel::Config lat_cfg;
  lat_cfg.batch = device.profile().default_batch;
  lat_cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  core::LatencyModel model(space, device, lat_cfg);
  const core::AccuracySurrogate surrogate(space);
  const double T = cli.get_double("constraint");
  const core::Objective objective{-0.3, T};

  core::EvolutionSearch::Config evo;
  evo.generations = static_cast<int>(cli.get_int("generations"));
  evo.population = static_cast<int>(cli.get_int("population"));
  evo.parents = static_cast<int>(cli.get_int("parents"));
  evo.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  core::EvolutionSearch search(
      space,
      core::score_each(
          [&](const core::Arch& a) { return surrogate.accuracy(a); }),
      model, objective, evo);
  const auto result = search.run();

  // ---- top: per-generation trajectory -------------------------------------
  std::printf(
      "FIG 6 (top): best candidate per generation (T = %.0f ms on %s)\n",
      T, device.profile().name.c_str());
  std::printf("%4s %12s %12s %14s %12s\n", "gen", "best score", "mean score",
              "best lat (ms)", "best top-1");
  for (const auto& g : result.per_generation) {
    std::printf("%4d %12.4f %12.4f %14.2f %11.1f%%\n", g.generation,
                g.best_score, g.mean_score, g.best_latency_ms,
                (1.0 - g.best_accuracy) * 100.0);
  }
  const double measured = model.measure_ms(result.best.arch);
  std::printf(
      "\nwinner: predicted %.1f ms, on-device %.1f ms vs T = %.0f ms "
      "(paper: 34.3 ms vs 34 ms); top-1 err %.1f%%\n",
      result.best.latency_ms, measured, T,
      (1.0 - result.best.accuracy) * 100.0);
  std::printf("winner arch: %s\n\n",
              result.best.arch.to_string(space).c_str());

  // ---- bottom: latency histogram of EA candidates vs uniform sampling -----
  std::vector<double> ea_latencies;
  for (const auto& cand : result.evaluated) {
    ea_latencies.push_back(cand.latency_ms);
  }
  util::Rng rng(evo.seed ^ 0xBADA55ull);
  std::vector<double> random_latencies;
  for (std::size_t i = 0; i < ea_latencies.size(); ++i) {
    random_latencies.push_back(
        model.predict_ms(core::Arch::random(space, rng)));
  }
  const double lo = std::min(util::min_of(ea_latencies),
                             util::min_of(random_latencies));
  const double hi = std::max(util::max_of(ea_latencies),
                             util::max_of(random_latencies));
  util::Histogram ea_hist(lo, hi, 18), random_hist(lo, hi, 18);
  ea_hist.add_all(ea_latencies);
  random_hist.add_all(random_latencies);

  std::printf(
      "FIG 6 (bottom): latency of all %zu EA-evaluated candidates "
      "(red dashed line of the paper = T at %.0f ms)\n%s\n",
      ea_latencies.size(), T, ea_hist.render().c_str());
  std::printf("uniform-random sample of A for contrast:\n%s\n",
              random_hist.render().c_str());
  const auto within = [&](const std::vector<double>& xs, double band) {
    return 100.0 *
           static_cast<double>(std::count_if(
               xs.begin(), xs.end(),
               [&](double v) { return std::abs(v / T - 1) < band; })) /
           static_cast<double>(xs.size());
  };
  std::printf(
      "EA concentration: %.0f%% of evaluated candidates within +/-5%% of T, "
      "%.0f%% within +/-2%% (uniform random: %.0f%% / %.0f%%)\n",
      within(ea_latencies, 0.05), within(ea_latencies, 0.02),
      within(random_latencies, 0.05), within(random_latencies, 0.02));

  // Paper-style qualitative reading: which operators/widths survive per
  // layer among the best 10% of everything the EA evaluated.
  const auto stats = core::analyze_population(
      result.evaluated, space, result.evaluated.size() / 10);
  std::printf(
      "\nper-layer operator survival among the top 10%% of candidates:\n%s\n",
      core::render_layer_statistics(stats, space).c_str());

  util::CsvWriter csv(cli.get("csv"));
  csv.row(std::vector<std::string>{"kind", "latency_ms", "score"});
  for (const auto& cand : result.evaluated) {
    csv.row(std::vector<std::string>{"ea", util::format("%.4f", cand.latency_ms),
                                     util::format("%.5f", cand.score)});
  }
  for (double v : random_latencies) {
    csv.row(std::vector<std::string>{"random", util::format("%.4f", v), ""});
  }
  std::printf("raw candidates written to %s\n", cli.get("csv").c_str());
  return 0;
}
