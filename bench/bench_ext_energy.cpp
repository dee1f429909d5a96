// Extension bench (§V future work): energy/power-constrained co-design.
//
// Three searches on the same device and latency budget:
//   (a) the paper's Eq. 1 objective (latency only);
//   (b) energy-aware objective with a tight energy budget (γ < 0);
//   (c) energy-aware with a loose budget (sanity: should match (a)).
// Reported: top-1 error, latency, energy and mean power of each winner —
// the tight-budget search must trade a little accuracy for a real energy
// reduction, not just ride the latency constraint.

#include <cstdio>

#include "core/accuracy_surrogate.h"
#include "core/energy_model.h"
#include "core/evolution.h"
#include "core/lowering.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Energy-constrained NAS (paper §V extension)");
  cli.add_option("device", "xavier", "target device");
  cli.add_option("generations", "20", "EA generations");
  cli.add_option("population", "50", "EA population");
  cli.add_option("seed", "13", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(
      hwsim::device_by_name(cli.get("device")));
  const hwsim::EnergySimulator energy_sim(
      hwsim::energy_by_name(cli.get("device")), device);
  const int batch = device.profile().default_batch;

  const core::LatencyModel latency(
      space, device, core::LatencyModel::Config{batch, 50, seed, true});
  const core::EnergyModel energy(
      space, energy_sim, core::EnergyModel::Config{batch, 50, seed, true},
      &latency);
  const core::AccuracySurrogate surrogate(space);
  const core::AccuracyFn accuracy = core::score_each(
      [&](const core::Arch& a) { return surrogate.accuracy(a); });

  const double T = hwsim::default_constraint_ms(cli.get("device"));

  // Reference energy distribution at the latency constraint: sample archs,
  // keep those near T, and take percentiles for the budgets.
  util::Rng rng(seed ^ 0xE0ull);
  std::vector<double> energies_near_t;
  while (energies_near_t.size() < 60) {
    const core::Arch arch = core::Arch::random(space, rng);
    if (std::abs(latency.predict_ms(arch) / T - 1.0) < 0.25) {
      energies_near_t.push_back(energy.predict_mj(arch));
    }
  }
  const double tight_budget = util::percentile(energies_near_t, 15.0);
  const double loose_budget = util::percentile(energies_near_t, 95.0);

  core::EvolutionSearch::Config evo;
  evo.generations = static_cast<int>(cli.get_int("generations"));
  evo.population = static_cast<int>(cli.get_int("population"));
  evo.parents = evo.population * 2 / 5;
  evo.seed = seed;

  util::Table table({"objective", "top-1 err", "lat (ms)", "energy (mJ)",
                     "mean power (W)", "mJ/inference/img"});
  const auto add_row = [&](const std::string& name,
                           const core::EvolutionSearch::Candidate& best) {
    const auto net = core::lower_network(best.arch, space);
    const double e = energy_sim.network_energy_mj(net, batch);
    const double lat = device.network_latency_ms(net, batch);
    table.add_row({name, util::format("%.2f", (1.0 - best.accuracy) * 100.0),
                   util::format("%.2f", lat), util::format("%.1f", e),
                   util::format("%.1f", e / lat),
                   util::format("%.2f", e / batch)});
  };

  {
    core::EvolutionSearch search(space, accuracy, latency,
                                 core::Objective{-0.3, T}, evo);
    add_row("Eq.1 (latency only)", search.run().best);
  }
  {
    core::Objective obj{-0.3, T};
    obj.gamma = -0.3;
    obj.energy_budget_mj = tight_budget;
    core::EvolutionSearch search(space, accuracy, latency, energy, obj, evo);
    add_row(util::format("+ energy, tight (%.0f mJ)", tight_budget),
            search.run().best);
  }
  {
    core::Objective obj{-0.3, T};
    obj.gamma = -0.3;
    obj.energy_budget_mj = loose_budget;
    core::EvolutionSearch search(space, accuracy, latency, energy, obj, evo);
    add_row(util::format("+ energy, loose (%.0f mJ)", loose_budget),
            search.run().best);
  }

  std::printf(
      "ENERGY-CONSTRAINED SEARCH on %s (T = %.0f ms, batch %d)\n%s\n"
      "reading guide: the tight energy budget should pull the winner's "
      "energy down toward its budget at a small accuracy cost; the loose "
      "budget behaves like plain Eq. 1.\n",
      cli.get("device").c_str(), T, batch, table.render().c_str());
  return 0;
}
