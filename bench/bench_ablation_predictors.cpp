// Predictor ablation: the paper's LUT + bias model (Eq. 2-3) against a
// learned layer-wise ridge regressor and a FLOPs-proportional baseline, at
// matched measurement budgets. The interesting axis is data efficiency:
// the LUT needs L·K·|C| isolated op profiles plus M end-to-end runs, while
// the regressor needs end-to-end runs only — how many before it catches up?

#include <cstdio>
#include <vector>

#include "core/latency_model.h"
#include "core/latency_regression.h"
#include "core/lowering.h"
#include "core/search_space.h"
#include "eval/latency_report.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Latency predictor ablation: LUT+B vs regression vs FLOPs");
  cli.add_option("device", "gv100", "target device");
  cli.add_option("eval-archs", "150", "held-out architectures");
  cli.add_option("seed", "17", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(
      hwsim::device_by_name(cli.get("device")));
  const int batch = device.profile().default_batch;

  // Held-out evaluation set (noise-free ground truth).
  util::Rng rng(seed ^ 0xEEull);
  std::vector<core::Arch> eval_archs;
  std::vector<double> truth;
  for (int i = 0; i < cli.get_int("eval-archs"); ++i) {
    eval_archs.push_back(core::Arch::random(space, rng));
    truth.push_back(device.network_latency_ms(
        core::lower_network(eval_archs.back(), space), batch));
  }

  util::Table table({"predictor", "measurements", "RMSE (ms)", "pearson",
                     "kendall tau"});

  // (a) Eq. 2-3 LUT + bias.
  {
    core::LatencyModel model(space, device,
                             core::LatencyModel::Config{batch, 50, seed,
                                                        true});
    std::vector<double> pred;
    for (const auto& arch : eval_archs) pred.push_back(model.predict_ms(arch));
    const eval::LatencyStats m = eval::latency_stats(pred, truth);
    const int lut_entries = space.num_layers() * space.config().num_ops *
                            static_cast<int>(
                                space.config().channel_factors.size());
    table.add_row({"LUT + bias (Eq. 2-3)",
                   util::format("%d op profiles + 50 runs", lut_entries),
                   util::format("%.3f", m.rmse_ms),
                   util::format("%.4f", m.pearson),
                   util::format("%.4f", m.kendall_tau)});
  }

  // (b) Ridge regression at several measurement budgets.
  for (const int budget : {50, 100, 200, 400, 800}) {
    core::LatencyRegressor::Config cfg;
    cfg.train_samples = budget;
    cfg.batch = batch;
    cfg.seed = seed;
    const core::LatencyRegressor regressor(space, device, cfg);
    std::vector<double> pred;
    for (const auto& arch : eval_archs) {
      pred.push_back(regressor.predict_ms(arch));
    }
    const eval::LatencyStats m = eval::latency_stats(pred, truth);
    table.add_row({"layer-wise regression",
                   util::format("%d end-to-end runs", budget),
                   util::format("%.3f", m.rmse_ms),
                   util::format("%.4f", m.pearson),
                   util::format("%.4f", m.kendall_tau)});
  }

  // (c) FLOPs-proportional baseline (scale fitted on 50 runs).
  {
    util::Rng fit_rng(seed ^ 0xF1ull);
    std::vector<double> gf, lat;
    for (int i = 0; i < 50; ++i) {
      const core::Arch arch = core::Arch::random(space, fit_rng);
      gf.push_back(core::arch_macs(arch, space) / 1e9);
      lat.push_back(device.network_latency_ms(
          core::lower_network(arch, space), batch, &fit_rng));
    }
    const util::LinearFit fit = util::linear_fit(gf, lat);
    std::vector<double> pred;
    for (const auto& arch : eval_archs) {
      pred.push_back(fit.intercept +
                     fit.slope * core::arch_macs(arch, space) / 1e9);
    }
    const eval::LatencyStats m = eval::latency_stats(pred, truth);
    table.add_row({"FLOPs-linear baseline", "50 end-to-end runs",
                   util::format("%.3f", m.rmse_ms),
                   util::format("%.4f", m.pearson),
                   util::format("%.4f", m.kendall_tau)});
  }

  std::printf(
      "LATENCY PREDICTOR ABLATION on %s (batch %d, %zu held-out archs)\n%s\n"
      "reading guide: Eq. 2-3 is near-exact because per-op costs compose "
      "additively on real runtimes too; the regressor needs hundreds of "
      "end-to-end runs to approach it; FLOPs alone misranks heavily "
      "(cf. Fig. 2).\n",
      cli.get("device").c_str(), batch, eval_archs.size(),
      table.render().c_str());
  return 0;
}
