// Standalone use of the hardware performance model (§III-A): build the
// per-operator LUT on a target device, calibrate the communication bias B
// from M end-to-end measurements (Eq. 3), then predict latency for fresh
// architectures in O(L) — no device in the loop — and validate against
// simulated on-device runs.

#include <cstdio>

#include "core/latency_model.h"
#include "core/lowering.h"
#include "core/search_space.h"
#include "eval/latency_report.h"
#include "hwsim/registry.h"
#include "util/cli.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Eq. 2-3 latency predictor, standalone");
  cli.add_option("device", "gpu", "target hardware: gpu | cpu | edge");
  cli.add_option("bias-samples", "50", "M end-to-end calibration runs");
  cli.add_option("check-archs", "10", "architectures to validate");
  cli.add_option("arch", "",
                 "predict a specific architecture, given in the "
                 "\"shuffle_k3@0.5 | skip@1.0 | ...\" format (20 layers)");
  cli.add_option("seed", "21", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator device(hwsim::device_by_name(cli.get("device")));

  core::LatencyModel::Config cfg;
  cfg.batch = device.profile().default_batch;
  cfg.bias_samples = static_cast<int>(cli.get_int("bias-samples"));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  core::LatencyModel model(space, device, cfg);

  std::printf("device: %s (batch %d)\n", device.profile().name.c_str(),
              cfg.batch);
  std::printf("LUT built: stem %.3f ms + %d x 5 x 10 entries + head %.3f "
              "ms; bias B = %.3f ms from %d runs\n\n",
              model.stem_ms(), space.num_layers(), model.head_ms(),
              model.bias_ms(), cfg.bias_samples);

  if (!cli.get("arch").empty()) {
    const core::Arch arch = core::Arch::from_string(space, cli.get("arch"));
    std::printf("user-specified architecture:\n  %s\n",
                arch.to_string(space).c_str());
    std::printf("  predicted: %.2f ms | on-device: %.2f ms | %.0f MMacs\n\n",
                model.predict_ms(arch), model.measure_ms(arch),
                core::arch_macs(arch, space) / 1e6);
  }

  std::printf("%6s %12s %12s %12s %10s\n", "arch", "LUT sum", "+B (Eq.2)",
              "on-device", "error");
  util::Rng rng(cfg.seed ^ 0xC0FFEEull);
  double worst = 0.0;
  for (int i = 0; i < cli.get_int("check-archs"); ++i) {
    const core::Arch arch = core::Arch::random(space, rng);
    const double raw = model.predict_uncorrected_ms(arch);
    const double pred = model.predict_ms(arch);
    const double real = model.measure_ms(arch);
    const double err = std::abs(pred - real);
    worst = std::max(worst, err);
    std::printf("%6d %10.2fms %10.2fms %10.2fms %8.2fms\n", i, raw, pred,
                real, err);
  }
  std::printf("\nworst absolute error: %.2f ms "
              "(paper reports RMSE 0.5/0.1/1.7 ms on GPU/CPU/edge)\n",
              worst);

  const auto report = eval::evaluate_latency_model(model, 100, cfg.seed);
  std::printf("over 100 fresh archs: RMSE %.2f ms (%.2f without B), "
              "pearson %.3f, kendall %.3f\n",
              report.stats.rmse_ms, report.rmse_uncorrected_ms,
              report.stats.pearson, report.stats.kendall_tau);
  return 0;
}
