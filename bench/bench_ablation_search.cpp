// Ablation bench (ours, motivated by DESIGN.md): which HSCoNAS components
// actually pay their way? Same evaluation budget throughout.
//
//   1. EA (full HSCoNAS search) vs uniform random search;
//   2. latency-aware objective (beta < 0) vs latency-blind (beta = 0);
//   3. bias term B on vs off — does Eq. 3 matter for hitting T on device;
//   4. progressive space shrinking on vs off at fixed total budget.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/pipeline.h"
#include "core/searchers.h"
#include "core/space_shrinking.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

namespace {

struct Env {
  core::SearchSpace space{core::SearchSpaceConfig::imagenet_layout_a()};
  hwsim::DeviceSimulator device;
  core::LatencyModel model;
  core::AccuracySurrogate surrogate{space};
  double T;

  explicit Env(const std::string& device_name, std::uint64_t seed)
      : device(hwsim::device_by_name(device_name)),
        model(space, device,
              core::LatencyModel::Config{
                  hwsim::device_by_name(device_name).default_batch, 50, seed,
                  true}),
        T(hwsim::default_constraint_ms(device_name)) {}

  core::AccuracyFn accuracy_fn() {
    return core::score_each(
        [this](const core::Arch& a) { return surrogate.accuracy(a); });
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("Search ablations: EA, beta, bias B, shrinking");
  cli.add_option("device", "xavier", "target device");
  cli.add_option("generations", "20", "EA generations");
  cli.add_option("population", "50", "EA population");
  cli.add_option("seed", "8", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  Env env(cli.get("device"), seed);

  core::EvolutionSearch::Config evo;
  evo.generations = static_cast<int>(cli.get_int("generations"));
  evo.population = static_cast<int>(cli.get_int("population"));
  evo.parents = evo.population * 2 / 5;
  evo.seed = seed;

  util::Table table({"variant", "top-1 err", "pred lat (ms)",
                     "on-device (ms)", "|lat/T - 1|", "F score"});
  const auto add_row = [&](const std::string& name, const core::Arch& arch,
                           double score) {
    const double err = env.surrogate.top1_error(arch);
    const double lat = env.model.predict_ms(arch);
    const double real = env.model.true_ms(arch);
    table.add_row({name, util::format("%.2f", err),
                   util::format("%.2f", lat), util::format("%.2f", real),
                   util::format("%.3f", std::abs(real / env.T - 1.0)),
                   util::format("%.4f", score)});
  };

  // 1. Full EA.
  {
    core::EvolutionSearch search(env.space, env.accuracy_fn(), env.model,
                                 core::Objective{-0.3, env.T}, evo);
    const auto result = search.run();
    add_row("HSCoNAS EA (full)", result.best.arch, result.best.score);

    // 2. Random search at the same evaluation budget.
    core::RandomSearch random(
        env.space, env.accuracy_fn(), env.model,
        core::Objective{-0.3, env.T},
        core::RandomSearch::Config{
            static_cast<int>(result.evaluated.size()), seed ^ 0xF00Dull});
    const auto random_result = random.run();
    add_row("random search (same budget)", random_result.best.arch,
            random_result.best.score);

    // 2b. Aging evolution (Real et al., the paper's EA reference [12]).
    core::AgingEvolution::Config aging_cfg;
    aging_cfg.evaluations = static_cast<int>(result.evaluated.size());
    aging_cfg.population = evo.population;
    aging_cfg.tournament = 10;
    aging_cfg.seed = seed ^ 0xA61ull;
    core::AgingEvolution aging(env.space, env.accuracy_fn(), env.model,
                               core::Objective{-0.3, env.T}, aging_cfg);
    const auto aging_result = aging.run();
    add_row("aging evolution (same budget)", aging_result.best.arch,
            aging_result.best.score);
  }

  // 3. Latency-blind EA (beta = 0): picks big nets, blows the budget.
  {
    core::EvolutionSearch search(env.space, env.accuracy_fn(), env.model,
                                 core::Objective{0.0, env.T}, evo);
    const auto result = search.run();
    add_row("latency-blind EA (beta=0)", result.best.arch,
            result.best.score);
  }

  // 4. EA steered by the *uncorrected* LUT sum (no Eq. 3 bias): it believes
  // nets are faster than they are, so the winner overshoots T on device.
  {
    core::EvolutionSearch::Config cfg = evo;
    cfg.seed = seed ^ 0x9;
    // Cheapest correct approach: wrap via a latency model clone with a
    // dedicated Objective comparing uncorrected predictions. We emulate by
    // shifting the constraint: steering on uncorrected(lat) against T is
    // the same as steering on corrected(lat) against T + B.
    core::EvolutionSearch search(
        env.space, env.accuracy_fn(), env.model,
        core::Objective{-0.3, env.T + env.model.bias_ms()}, cfg);
    const auto result = search.run();
    add_row("no bias term B (Eq.3 off)", result.best.arch,
            result.best.score);
  }

  // 5. Shrinking on vs off at a *reduced* EA budget (where the cheaper
  // exploration of a pruned space shows up).
  {
    core::EvolutionSearch::Config small = evo;
    small.generations = std::max(3, evo.generations / 4);
    small.seed = seed ^ 0x10;

    core::EvolutionSearch flat(env.space, env.accuracy_fn(), env.model,
                               core::Objective{-0.3, env.T}, small);
    const auto flat_result = flat.run();
    add_row("small EA, no shrinking", flat_result.best.arch,
            flat_result.best.score);

    core::SearchSpace shrunk(env.space.config());
    core::LatencyModel model2(
        shrunk, env.device,
        core::LatencyModel::Config{env.device.profile().default_batch, 50,
                                   seed, true});
    core::AccuracySurrogate surrogate2(shrunk);
    const core::AccuracyFn acc2 = core::score_each(
        [&](const core::Arch& a) { return surrogate2.accuracy(a); });
    core::SpaceShrinker shrinker(shrunk, acc2, model2,
                                 core::Objective{-0.3, env.T},
                                 core::SpaceShrinker::Config{100, seed ^ 0x11});
    shrinker.shrink_stage(shrunk.num_layers() - 1, 4);
    shrinker.shrink_stage(shrunk.num_layers() - 5, 4);
    core::EvolutionSearch pruned(shrunk, acc2, model2,
                                 core::Objective{-0.3, env.T}, small);
    const auto pruned_result = pruned.run();
    add_row("small EA, after 2-stage shrink", pruned_result.best.arch,
            pruned_result.best.score);
  }

  std::printf(
      "SEARCH ABLATIONS on %s (T = %.0f ms)\n%s\n"
      "reading guide: the full EA should dominate random search; beta=0 "
      "ignores T entirely; disabling B makes the winner overshoot T "
      "on device; shrinking helps most when the EA budget is tight.\n",
      cli.get("device").c_str(), env.T, table.render().c_str());
  return 0;
}
