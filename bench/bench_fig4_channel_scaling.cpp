// Fig. 4 reproduction (quantified): conventional *uniform* channel scaling
// (one factor for every layer, applied post-hoc) vs the paper's *dynamic*
// per-layer channel scaling searched jointly with the operators (§III-B).
//
// For a sweep of latency budgets we report the best achievable accuracy
// under each scheme; dynamic scaling must dominate, because it can spend
// width where it matters (late, low-resolution layers are cheap per
// channel) instead of scaling every layer equally.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/search_space.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Fig. 4: conventional vs dynamic channel scaling");
  cli.add_option("device", "xavier", "target device");
  cli.add_option("generations", "15", "EA generations per budget");
  cli.add_option("population", "40", "EA population");
  cli.add_option("seed", "4", "seed");
  cli.add_option("csv", "fig4.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(
      hwsim::device_by_name(cli.get("device")));
  core::LatencyModel::Config lat_cfg;
  lat_cfg.batch = device.profile().default_batch;
  lat_cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::LatencyModel model(space, device, lat_cfg);
  const core::AccuracySurrogate surrogate(space);

  // --- conventional: fixed operator assignment, one uniform factor -------
  // (the usual post-NAS width-multiplier sweep, e.g. MobileNet 0.5x/0.75x).
  struct Point {
    double latency_ms, top1_err;
    double factor = 0.0;
  };
  std::vector<Point> uniform_points;
  core::Arch base;
  base.ops.assign(static_cast<std::size_t>(space.num_layers()), 0);  // k3
  base.factors.assign(static_cast<std::size_t>(space.num_layers()), 0);
  for (int f = 0; f < 10; ++f) {
    core::Arch arch = base;
    std::fill(arch.factors.begin(), arch.factors.end(), f);
    uniform_points.push_back(
        {model.predict_ms(arch), surrogate.top1_error(arch),
         space.config().channel_factors[static_cast<std::size_t>(f)]});
  }

  // --- dynamic: EA over {op, c} under the same latency budgets ------------
  util::Table table({"budget T (ms)", "uniform best top-1 err",
                     "dynamic best top-1 err", "gain", "dynamic lat (ms)"});
  util::CsvWriter csv(cli.get("csv"));
  csv.row(std::vector<std::string>{"budget_ms", "uniform_err", "dynamic_err",
                                   "dynamic_latency_ms"});

  for (const Point& target : uniform_points) {
    if (target.factor < 0.25) continue;  // degenerate budgets
    const double T = target.latency_ms;
    // Best uniform point that fits the budget.
    double uniform_best = 100.0;
    for (const Point& p : uniform_points) {
      if (p.latency_ms <= T * 1.001) {
        uniform_best = std::min(uniform_best, p.top1_err);
      }
    }

    core::SearchSpace search_space(space.config());
    const core::Objective objective{-0.3, T};
    core::EvolutionSearch::Config evo;
    evo.generations = static_cast<int>(cli.get_int("generations"));
    evo.population = static_cast<int>(cli.get_int("population"));
    evo.parents = evo.population / 3;
    evo.seed = static_cast<std::uint64_t>(cli.get_int("seed")) ^
               static_cast<std::uint64_t>(T * 100);
    core::AccuracySurrogate dyn_surrogate(search_space);
    core::LatencyModel dyn_model(search_space, device, lat_cfg);
    core::EvolutionSearch search(
        search_space,
        core::score_each(
            [&](const core::Arch& a) { return dyn_surrogate.accuracy(a); }),
        dyn_model, objective, evo);
    const auto result = search.run();
    // Best candidate that actually fits the budget.
    double dynamic_best = 100.0, dynamic_lat = 0.0;
    for (const auto& cand : result.evaluated) {
      if (cand.latency_ms <= T * 1.001) {
        const double err = (1.0 - cand.accuracy) * 100.0;
        if (err < dynamic_best) {
          dynamic_best = err;
          dynamic_lat = cand.latency_ms;
        }
      }
    }

    table.add_row({util::format("%.1f", T),
                   util::format("%.2f  (c=%.1f)", uniform_best,
                                target.factor),
                   util::format("%.2f", dynamic_best),
                   util::format("%+.2f", uniform_best - dynamic_best),
                   util::format("%.1f", dynamic_lat)});
    csv.row(std::vector<double>{T, uniform_best, dynamic_best, dynamic_lat});
  }

  std::printf(
      "FIG 4: uniform vs dynamic channel scaling on %s\n"
      "(budgets are the latencies of the uniform-factor sweep; 'gain' is "
      "the top-1 error reduction from per-layer scaling)\n%s\n"
      "raw rows written to %s\n",
      device.profile().name.c_str(), table.render().c_str(),
      cli.get("csv").c_str());
  return 0;
}
