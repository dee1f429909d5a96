// Pareto-front example: when the deployment latency budget is not yet
// fixed, evolve the whole accuracy-latency front in one run (NSGA-II-style
// selection) instead of re-running the Eq. 1 search per candidate T.

#include <cstdio>

#include "core/accuracy_surrogate.h"
#include "core/pareto.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Accuracy-latency Pareto front in a single search");
  cli.add_option("device", "edge", "target hardware: gpu | cpu | edge");
  cli.add_option("generations", "25", "generations");
  cli.add_option("population", "60", "population");
  cli.add_option("seed", "19", "seed");
  cli.add_option("csv", "pareto_front.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(hwsim::device_by_name(cli.get("device")));
  const core::LatencyModel latency(
      space, device,
      core::LatencyModel::Config{device.profile().default_batch, 50,
                                 static_cast<std::uint64_t>(cli.get_int("seed")),
                                 true});
  const core::AccuracySurrogate surrogate(space);

  core::ParetoSearch::Config cfg;
  cfg.generations = static_cast<int>(cli.get_int("generations"));
  cfg.population = static_cast<int>(cli.get_int("population"));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  core::ParetoSearch search(
      space,
      core::score_each(
          [&](const core::Arch& a) { return surrogate.accuracy(a); }),
      latency, cfg);
  const auto result = search.run();

  std::printf("Pareto front on %s after %d generations (%zu points):\n\n",
              device.profile().name.c_str(), cfg.generations,
              result.front.size());
  std::printf("%12s %12s   architecture digest\n", "lat (ms)", "top-1 err");
  util::CsvWriter csv(cli.get("csv"));
  csv.row(std::vector<std::string>{"latency_ms", "top1_err", "arch"});
  for (const auto& point : result.front) {
    // Digest: operator histogram + mean channel factor.
    int kinds[5] = {0, 0, 0, 0, 0};
    double mean_factor = 0.0;
    for (int l = 0; l < point.arch.num_layers(); ++l) {
      kinds[point.arch.ops[static_cast<std::size_t>(l)]]++;
      mean_factor += space.config().channel_factors.at(
          static_cast<std::size_t>(
              point.arch.factors[static_cast<std::size_t>(l)]));
    }
    mean_factor /= point.arch.num_layers();
    const double err = (1.0 - point.accuracy) * 100.0;
    std::printf("%12.2f %11.2f%%   k3:%d k5:%d k7:%d xcep:%d skip:%d  c̄=%.2f\n",
                point.latency_ms, err, kinds[0], kinds[1], kinds[2],
                kinds[3], kinds[4], mean_factor);
    csv.row(std::vector<std::string>{
        util::format("%.3f", point.latency_ms), util::format("%.3f", err),
        point.arch.to_string(space)});
  }
  std::printf(
      "\npick any point post-hoc: e.g. the paper's T = 34 ms budget simply "
      "selects the front point closest to 34 ms.\nfront written to %s\n",
      cli.get("csv").c_str());
  return 0;
}
