// Fig. 3 + §III-A RMSE reproduction: estimated latency (Eq. 2 LUT sum +
// Eq. 3 bias B) vs "on-device" latency from the device simulator, for all
// three target platforms. The paper reports RMSE 0.5 / 0.1 / 1.7 ms on
// GPU / CPU / edge and a strong visual correlation; we report the same
// statistics with and without the bias correction.

#include <cstdio>
#include <map>

#include "core/latency_model.h"
#include "core/search_space.h"
#include "eval/latency_report.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace hsconas;

int main(int argc, char** argv) {
  util::Cli cli("Fig. 3: hardware performance model accuracy");
  cli.add_option("eval-archs", "200", "architectures evaluated per device");
  cli.add_option("bias-samples", "50", "M of Eq. 3");
  cli.add_option("seed", "3", "seed");
  cli.add_option("csv", "fig3.csv", "output CSV path");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  util::CsvWriter csv(cli.get("csv"));
  csv.row(std::vector<std::string>{"device", "predicted_ms",
                                   "predicted_uncorrected_ms", "measured_ms"});

  util::Table table({"device", "batch", "bias B (ms)", "RMSE (ms)",
                     "RMSE w/o B", "paper RMSE", "pearson", "spearman",
                     "kendall"});
  const std::map<std::string, double> paper_rmse = {
      {"gv100", 0.5}, {"xeon6136", 0.1}, {"xavier", 1.7}};

  for (const std::string& name : hwsim::device_names()) {
    const hwsim::DeviceSimulator device(hwsim::device_by_name(name));
    core::LatencyModel::Config cfg;
    cfg.batch = device.profile().default_batch;
    cfg.bias_samples = static_cast<int>(cli.get_int("bias-samples"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    core::LatencyModel model(space, device, cfg);

    const auto report = eval::evaluate_latency_model(
        model, static_cast<int>(cli.get_int("eval-archs")),
        cfg.seed ^ 0xF16u);
    for (const auto& p : report.points) {
      csv.row(std::vector<std::string>{
          name, util::format("%.4f", p.predicted_ms),
          util::format("%.4f", p.predicted_uncorrected_ms),
          util::format("%.4f", p.measured_ms)});
    }
    table.add_row({name, util::format("%d", cfg.batch),
                   util::format("%.2f", report.bias_ms),
                   util::format("%.2f", report.stats.rmse_ms),
                   util::format("%.2f", report.rmse_uncorrected_ms),
                   util::format("%.1f", paper_rmse.at(name)),
                   util::format("%.3f", report.stats.pearson),
                   util::format("%.3f", report.stats.spearman),
                   util::format("%.3f", report.stats.kendall_tau)});
  }

  std::printf(
      "FIG 3: estimated (Eq.2 + Eq.3 bias) vs on-device latency\n%s\n"
      "raw pairs written to %s\n",
      table.render().c_str(), cli.get("csv").c_str());
  return 0;
}
