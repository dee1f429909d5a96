// Custom-hardware example: the paper's co-design loop is device-agnostic —
// anything that can price an operator can drive the search. Here we define
// a hypothetical low-power NPU profile (strong dense-conv engines, weak
// depthwise support, expensive kernel launches), build the Eq. 2-3 latency
// model for it, and search. The discovered net should visibly avoid the
// operators the NPU is bad at.

#include <cstdio>
#include <map>

#include "core/accuracy_surrogate.h"
#include "core/evolution.h"
#include "core/latency_model.h"
#include "core/search_space.h"
#include "hwsim/device.h"
#include "hwsim/registry.h"
#include "util/cli.h"
#include "util/string_util.h"

using namespace hsconas;

namespace {

hwsim::DeviceProfile make_npu_profile() {
  hwsim::DeviceProfile p;
  p.name = "hypothetical-npu";
  p.peak_gflops = 4000.0;       // beefy MAC array...
  p.mem_bandwidth_gbs = 40.0;   // ...behind a narrow LPDDR interface
  p.launch_overhead_us = 40.0;  // command-queue round trips hurt
  p.sat_concurrency = 3.0e5;
  p.base_eff_conv = 0.7;        // dense convs map straight onto the array
  p.base_eff_depthwise = 0.05;  // depthwise wastes almost the whole array
  p.base_eff_linear = 0.5;
  p.eltwise_fusion = 0.9;       // aggressive compiler fusion
  p.link_bandwidth_gbs = 8.0;
  p.sync_overhead_us = 25.0;
  p.noise_sigma = 0.01;
  p.default_batch = 1;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("Searching for a user-defined accelerator profile");
  cli.add_option("constraint", "12", "latency budget T in ms");
  cli.add_option("seed", "11", "seed");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::imagenet_layout_a());
  const hwsim::DeviceSimulator npu(make_npu_profile());

  core::LatencyModel::Config lat_cfg;
  lat_cfg.batch = npu.profile().default_batch;
  lat_cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  core::LatencyModel model(space, npu, lat_cfg);
  std::printf("profiled %d layers x 5 ops x 10 factors on '%s'; "
              "communication bias B = %.2f ms\n",
              space.num_layers(), npu.profile().name.c_str(),
              model.bias_ms());

  // Peek at the LUT the way a deployment engineer would: what does each
  // operator cost in an early (large feature map) vs late layer?
  std::printf("\nLUT excerpt (full width), ms:\n%8s %12s %12s\n", "op",
              "layer 1", "layer 18");
  for (int op = 0; op < 5; ++op) {
    std::printf("%8s %12.3f %12.3f\n",
                nn::block_kind_name(static_cast<nn::BlockKind>(op)),
                model.lut_ms(1, op, 9), model.lut_ms(18, op, 9));
  }

  const core::AccuracySurrogate surrogate(space);
  const core::Objective objective{-0.3, cli.get_double("constraint")};
  core::EvolutionSearch::Config evo;
  evo.seed = lat_cfg.seed;
  core::EvolutionSearch search(
      space,
      core::score_each(
          [&](const core::Arch& a) { return surrogate.accuracy(a); }),
      model, objective, evo);
  const auto result = search.run();

  std::printf("\nwinner under T = %.0f ms: predicted %.1f ms, top-1 err "
              "%.1f%%\n  %s\n",
              objective.constraint_ms, result.best.latency_ms,
              (1.0 - result.best.accuracy) * 100.0,
              result.best.arch.to_string(space).c_str());

  // Operator census: on this NPU depthwise compute is nearly free to skip
  // past (memory bound at 5%% efficiency) while dense 1x1 convs are cheap
  // per MAC, so the search shifts width and operator choices toward
  // pointwise-conv-rich blocks instead of large depthwise kernels.
  std::map<int, int> census;
  for (int op : result.best.arch.ops) census[op]++;
  std::printf("\noperator census of the winner:\n");
  for (const auto& [op, count] : census) {
    std::printf("  %-12s x%d\n",
                nn::block_kind_name(static_cast<nn::BlockKind>(op)), count);
  }
  return 0;
}
