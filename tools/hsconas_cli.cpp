// hsconas — umbrella command-line tool.
//
//   hsconas search   --device=edge [--constraint=34] [--layout=A] ...
//   hsconas predict  --arch="shuffle_k3@0.5 | ..." [--device=gpu] ...
//   hsconas pareto   --device=cpu [--generations=25] ...
//   hsconas profile  --device=xavier [--archs=3] [--iters=10] ...
//   hsconas baselines
//
// `search` runs the full pipeline (surrogate accuracy at paper scale, or
// a real proxy-scale supernet with --accuracy=proxy) and writes a JSON
// report; `predict` prices a given architecture on all devices (latency,
// energy, compute); `pareto` evolves the accuracy-latency front;
// `baselines` prints the Table I zoo on the simulated devices.
//
// Global observability flags (any command, peeled before dispatch):
//   --metrics-out=PATH  dump the metrics registry as JSON on exit
//   --trace-out=PATH    enable the span tracer; write a Chrome/Perfetto
//                       trace (load at https://ui.perfetto.dev) on exit
//   --log-level=LVL     debug | info | warn | error | off
//   --log-json=PATH     mirror log records to PATH as JSONL

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "core/accuracy_surrogate.h"
#include "core/energy_model.h"
#include "core/lowering.h"
#include "core/pareto.h"
#include "core/pipeline.h"
#include "data/synthetic.h"
#include "eval/profile_runner.h"
#include "hwsim/energy.h"
#include "hwsim/registry.h"
#include "nn/quantize.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/batch_server.h"
#include "serve/load_gen.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace hsconas;

int usage() {
  std::fputs(
      "usage: hsconas <command> [--help | options]\n\n"
      "commands:\n"
      "  search     run the full HSCoNAS pipeline for a target device\n"
      "  predict    price one architecture on every device\n"
      "  pareto     evolve the accuracy-latency front for a device\n"
      "  profile    measure sampled archs per-op and validate the\n"
      "             latency model (roofline + Kendall-tau report)\n"
      "  serve      batch-scheduled inference server for a discovered\n"
      "             arch, driven by a closed-loop load generator\n"
      "  baselines  print the Table I baseline zoo on the simulators\n\n"
      "global flags (any command):\n"
      "  --metrics-out=PATH  write the metrics registry as JSON on exit\n"
      "  --trace-out=PATH    enable tracing; write a Perfetto trace on exit\n"
      "  --log-level=LVL     debug | info | warn | error | off\n"
      "  --log-json=PATH     mirror log records to PATH as JSONL\n",
      stdout);
  return 2;
}

core::SearchSpaceConfig layout_config(const std::string& layout,
                                      const std::string& family = "shuffle") {
  core::SearchSpaceConfig cfg;
  if (layout == "A" || layout == "a") {
    cfg = core::SearchSpaceConfig::imagenet_layout_a();
  } else if (layout == "B" || layout == "b") {
    cfg = core::SearchSpaceConfig::imagenet_layout_b();
  } else {
    throw InvalidArgument("--layout must be A or B");
  }
  if (family == "mbconv") {
    cfg = cfg.with_family(nn::OpFamily::kMbConv);
  } else if (family != "shuffle") {
    throw InvalidArgument("--family must be shuffle or mbconv");
  }
  return cfg;
}

int cmd_search(int argc, char** argv) {
  util::Cli cli("hsconas search: full pipeline, surrogate accuracy");
  cli.add_option("device", "edge", "target: gpu | cpu | edge");
  cli.add_option("constraint", "0", "latency budget T ms (0 = paper default)");
  cli.add_option("layout", "A", "channel layout: A or B");
  cli.add_option("family", "shuffle", "operator family: shuffle | mbconv");
  cli.add_option("accuracy", "surrogate",
                 "accuracy backend: surrogate (paper-scale, fast) | proxy "
                 "(train a real supernet on the synthetic proxy task)");
  cli.add_option("generations", "20", "EA generations");
  cli.add_option("population", "50", "EA population");
  cli.add_option("seed", "1", "seed");
  cli.add_option("report", "hsconas_search.json", "JSON report path");
  cli.add_option("checkpoint-dir", "",
                 "directory for crash-safe progress snapshots "
                 "(empty = no checkpointing; see docs/ROBUSTNESS.md)");
  cli.add_option("checkpoint-every", "1",
                 "snapshot every N epochs/generations (stage boundaries "
                 "always snapshot)");
  cli.add_option("resume", "0",
                 "1 = continue from checkpoint-dir's pipeline.ckpt if "
                 "present");
  cli.add_flag("quant",
               "add the int8 quantization gene to the search space: "
               "candidates may trade the surrogate's PTQ accuracy drop for "
               "the device's int8 datapath speedup");
  if (!cli.parse(argc, argv)) return 0;

  const std::string accuracy = cli.get("accuracy");
  if (accuracy != "surrogate" && accuracy != "proxy") {
    throw InvalidArgument("--accuracy must be surrogate or proxy");
  }

  core::PipelineConfig cfg;
  cfg.device = cli.get("device");
  cfg.constraint_ms = cli.get_double("constraint");
  cfg.evolution.generations = static_cast<int>(cli.get_int("generations"));
  cfg.evolution.population = static_cast<int>(cli.get_int("population"));
  cfg.evolution.parents = cfg.evolution.population * 2 / 5;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.checkpoint_dir = cli.get("checkpoint-dir");
  cfg.checkpoint_every = static_cast<int>(cli.get_int("checkpoint-every"));
  cfg.resume = cli.get_int("resume") != 0;

  std::unique_ptr<data::SyntheticDataset> dataset;
  if (accuracy == "surrogate") {
    cfg.space = layout_config(cli.get("layout"), cli.get("family"));
    cfg.use_surrogate = true;
  } else {
    // Proxy mode trains a *real* supernet, so it runs at proxy scale (the
    // synthetic stand-in task; see DESIGN.md) regardless of --layout.
    cfg.space = core::SearchSpaceConfig::proxy(6, 12, 1);
    if (cli.get("family") == "mbconv") {
      cfg.space = cfg.space.with_family(nn::OpFamily::kMbConv);
    }
    if (cfg.constraint_ms <= 0.0) cfg.constraint_ms = 1.2;
    cfg.use_surrogate = false;
    cfg.initial_epochs = 2;
    cfg.tune_epochs = 1;
    cfg.shrink_layers_per_stage = 1;
    cfg.shrink.samples_per_subspace = 6;
    cfg.eval_batches = 2;
    cfg.train.batch_size = 36;
    cfg.train.lr = 0.08;
    data::SyntheticConfig ds;
    ds.num_classes = 6;
    ds.train_size = 180;
    ds.val_size = 90;
    ds.image_size = 12;
    ds.seed = 77;
    dataset = std::make_unique<data::SyntheticDataset>(ds);
  }
  cfg.space.search_quantization = cli.get_bool("quant");

  core::Pipeline pipeline(cfg);
  const core::PipelineResult result = pipeline.run(dataset.get());

  const double err = (1.0 - result.best_accuracy) * 100.0;
  std::printf("winner (layout %s, %s, T=%.0fms):\n  %s\n",
              cli.get("layout").c_str(), cfg.device.c_str(),
              result.constraint_ms,
              result.best_arch.to_string(pipeline.space()).c_str());
  std::printf("top-1 err %.1f%% | top-5 err %.1f%% | lat %.1f ms "
              "(measured %.1f) | %.0f MMacs\n",
              err, core::AccuracySurrogate::top5_from_top1(err),
              result.predicted_latency_ms, result.measured_latency_ms,
              core::arch_macs(result.best_arch, pipeline.space()) / 1e6);

  core::pipeline_report_json(result, pipeline.space())
      .save(cli.get("report"));
  std::printf("report written to %s\n", cli.get("report").c_str());
  return 0;
}

int cmd_predict(int argc, char** argv) {
  util::Cli cli("hsconas predict: price one architecture everywhere");
  cli.add_option("arch", "",
                 "architecture string, e.g. \"shuffle_k3@0.5 | ... \" "
                 "(20 layers; required)");
  cli.add_option("layout", "A", "channel layout: A or B");
  cli.add_option("family", "shuffle", "operator family: shuffle | mbconv");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.get("arch").empty()) {
    throw InvalidArgument("predict: --arch is required");
  }

  const core::SearchSpace space(
      layout_config(cli.get("layout"), cli.get("family")));
  const core::Arch arch = core::Arch::from_string(space, cli.get("arch"));
  const auto net = core::lower_network(arch, space);
  const core::AccuracySurrogate surrogate(space);
  const double err = surrogate.top1_error(arch);

  std::printf("architecture: %s\n", arch.to_string(space).c_str());
  std::printf("estimated ImageNet top-1/top-5 err: %.1f%% / %.1f%%\n",
              err, core::AccuracySurrogate::top5_from_top1(err));
  std::printf("compute: %.0f MMacs, %.2f M params\n\n",
              hwsim::network_macs(net) / 1e6,
              hwsim::network_params(net) / 1e6);

  util::Table table({"device", "batch", "latency (ms)", "energy (mJ)",
                     "mean power (W)"});
  for (const std::string& name : hwsim::device_names()) {
    const hwsim::DeviceSimulator device(hwsim::device_by_name(name));
    const hwsim::EnergySimulator energy(hwsim::energy_by_name(name), device);
    const int batch = device.profile().default_batch;
    const double lat = device.network_latency_ms(net, batch);
    const double mj = energy.network_energy_mj(net, batch);
    table.add_row({name, util::format("%d", batch),
                   util::format("%.2f", lat), util::format("%.1f", mj),
                   util::format("%.1f", mj / lat)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int cmd_pareto(int argc, char** argv) {
  util::Cli cli("hsconas pareto: accuracy-latency front in one run");
  cli.add_option("device", "edge", "target: gpu | cpu | edge");
  cli.add_option("layout", "A", "channel layout: A or B");
  cli.add_option("family", "shuffle", "operator family: shuffle | mbconv");
  cli.add_option("generations", "25", "generations");
  cli.add_option("population", "60", "population");
  cli.add_option("seed", "19", "seed");
  cli.add_flag("quant", "search over fp32 and int8 candidates; the front "
                        "then spans both dtypes");
  if (!cli.parse(argc, argv)) return 0;

  core::SearchSpaceConfig space_cfg =
      layout_config(cli.get("layout"), cli.get("family"));
  space_cfg.search_quantization = cli.get_bool("quant");
  const core::SearchSpace space(space_cfg);
  const hwsim::DeviceSimulator device(
      hwsim::device_by_name(cli.get("device")));
  const core::LatencyModel latency(
      space, device,
      core::LatencyModel::Config{
          device.profile().default_batch, 50,
          static_cast<std::uint64_t>(cli.get_int("seed")), true});
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

  util::Table table({"latency (ms)", "top-1 err", "architecture"});
  for (const auto& p : result.front) {
    table.add_row({util::format("%.2f", p.latency_ms),
                   util::format("%.2f", (1.0 - p.accuracy) * 100.0),
                   p.arch.to_string(space)});
  }
  std::printf("Pareto front on %s (%zu points):\n%s",
              device.profile().name.c_str(), result.front.size(),
              table.render().c_str());
  return 0;
}

int cmd_profile(int argc, char** argv) {
  util::Cli cli(
      "hsconas profile: run sampled archs with the per-op profiler and "
      "report predicted-vs-measured latency (per op and per arch)");
  cli.add_option("device", "xavier", "target: gpu | cpu | edge | name");
  cli.add_option("archs", "3", "architectures to sample (>= 1)");
  cli.add_option("iters", "10", "counted iterations per arch");
  cli.add_option("warmup", "2", "warm-up iterations (excluded)");
  cli.add_option("batch", "4", "batch size");
  cli.add_option("seed", "1", "sampling seed");
  cli.add_option("out", "profile.json", "per-op roofline report path");
  cli.add_option("dtype", "f32",
                 "inference datapath: f32 | int8 (int8 calibrates each "
                 "sampled net and prices against the int8 LUT)");
  cli.add_flag("fused", "eval-mode fused conv/BN/act execution");
  cli.add_flag("backward", "profile forward+backward (training mode)");
  if (!cli.parse(argc, argv)) return 0;

  eval::ProfileConfig cfg;
  cfg.device = cli.get("device");
  cfg.num_archs = static_cast<int>(cli.get_int("archs"));
  cfg.iters = static_cast<int>(cli.get_int("iters"));
  cfg.warmup = static_cast<int>(cli.get_int("warmup"));
  cfg.batch = static_cast<int>(cli.get_int("batch"));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.fused = cli.get_bool("fused");
  cfg.backward = cli.get_bool("backward");
  cfg.dtype = nn::parse_inference_dtype(cli.get("dtype"));

  const eval::LatencyReport report = eval::run_profile(cfg);
  std::fputs(eval::render_profile_report(cfg, report).c_str(), stdout);

  const std::string out = cli.get("out");
  if (!out.empty()) {
    eval::profile_report_json(cfg, report).save(out);
    std::printf("profile report written to %s\n", out.c_str());
  }
  return 0;
}

/// `--arch` accepts an arch string ("shuffle_k3@0.5 | ..."), a search
/// report JSON path (reads its "winner_string"), or "" for a seeded
/// random sample.
core::Arch serve_arch(const core::SearchSpace& space, const std::string& spec,
                      std::uint64_t seed) {
  if (spec.empty()) {
    util::Rng rng(seed);
    return core::Arch::random(space, rng);
  }
  const bool is_json = spec.size() > 5 &&
                       spec.compare(spec.size() - 5, 5, ".json") == 0;
  if (is_json) {
    const util::Json doc = util::Json::load(spec);
    const util::Json* winner = doc.find("winner_string");
    if (winner == nullptr) {
      throw InvalidArgument("--arch report " + spec +
                            " has no \"winner_string\" key");
    }
    return core::Arch::from_string(space, winner->as_string());
  }
  return core::Arch::from_string(space, spec);
}

int cmd_serve(int argc, char** argv) {
  util::Cli cli(
      "hsconas serve: batch-scheduled inference server over a standalone "
      "proxy-scale network, measured by a closed-loop load generator");
  cli.add_option("arch", "", "arch string, search-report JSON, or empty "
                             "for a seeded random arch");
  cli.add_option("batch-max", "8", "flush a batch at this occupancy");
  cli.add_option("deadline-us", "2000",
                 "flush when the oldest request has waited this long");
  cli.add_option("workers", "2", "concurrent serving lanes");
  cli.add_option("clients", "8", "closed-loop load-generator clients");
  cli.add_option("requests", "50", "measured requests per client");
  cli.add_option("warmup", "5", "warm-up requests per client");
  cli.add_option("seed", "42", "weight-init / sampling seed");
  cli.add_option("out", "", "write the hsconas.serving.v1 report JSON here");
  cli.add_option("dtype", "f32",
                 "lane datapath: f32 | int8 (int8 calibrates the shared "
                 "network once at startup and serves through the quantized "
                 "GEMM)");
  cli.add_option("calib-batches", "2",
                 "synthetic calibration batches (int8 only)");
  cli.add_flag("no-fuse", "disable the fused conv/BN/act inference path");
  if (!cli.parse(argc, argv)) return 0;

  const core::SearchSpace space(core::SearchSpaceConfig::proxy());
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const core::Arch arch = serve_arch(space, cli.get("arch"), seed);

  serve::ServerConfig server_cfg;
  server_cfg.batch_max = static_cast<std::size_t>(cli.get_int("batch-max"));
  server_cfg.deadline_us =
      static_cast<std::uint64_t>(cli.get_int("deadline-us"));
  server_cfg.workers = static_cast<std::size_t>(cli.get_int("workers"));
  server_cfg.fuse = !cli.get_bool("no-fuse");
  server_cfg.seed = seed;
  server_cfg.dtype = nn::parse_inference_dtype(cli.get("dtype"));
  server_cfg.calibration_batches =
      static_cast<std::size_t>(cli.get_int("calib-batches"));

  serve::LoadGenConfig load_cfg;
  load_cfg.clients = static_cast<std::size_t>(cli.get_int("clients"));
  load_cfg.requests_per_client =
      static_cast<std::size_t>(cli.get_int("requests"));
  load_cfg.warmup_per_client =
      static_cast<std::size_t>(cli.get_int("warmup"));
  load_cfg.seed = seed;

  serve::BatchServer server(space, arch, server_cfg);
  const serve::LoadGenReport report = serve::run_load(server, load_cfg);
  server.shutdown();

  util::Table table({"metric", "value"});
  table.add_row({"arch", arch.to_string(space)});
  table.add_row({"dtype", nn::inference_dtype_name(server_cfg.dtype)});
  table.add_row({"requests", util::format("%zu", report.total_requests)});
  table.add_row({"errors", util::format("%zu", report.errors)});
  table.add_row({"throughput (req/s)",
                 util::format("%.1f", report.throughput_rps)});
  table.add_row({"latency p50 (ms)",
                 util::format("%.3f", report.latency_p50_ms)});
  table.add_row({"latency p95 (ms)",
                 util::format("%.3f", report.latency_p95_ms)});
  table.add_row({"latency p99 (ms)",
                 util::format("%.3f", report.latency_p99_ms)});
  table.add_row({"batch occupancy (mean)",
                 util::format("%.2f", report.batch_occupancy_mean)});
  table.add_row({"queue depth (peak)",
                 util::format("%.0f", report.queue_depth_peak)});
  table.add_row({"steady-state heap allocs",
                 util::format("%.0f", report.pool_heap_allocs)});
  std::fputs(table.render().c_str(), stdout);

  const std::string out = cli.get("out");
  if (!out.empty()) {
    report.to_json().save(out);
    std::printf("serving report written to %s\n", out.c_str());
  }
  return report.errors == 0 ? 0 : 1;
}

int cmd_baselines(int argc, char** argv) {
  util::Cli cli("hsconas baselines: the Table I zoo on the simulators");
  if (!cli.parse(argc, argv)) return 0;

  util::Table table({"model", "GMacs", "MParams", "gv100 (ms)",
                     "xeon6136 (ms)", "xavier (ms)", "paper top-1"});
  std::vector<hwsim::DeviceSimulator> sims;
  for (const std::string& name : hwsim::device_names()) {
    sims.emplace_back(hwsim::device_by_name(name));
  }
  for (const auto& baseline : baselines::baseline_zoo()) {
    std::vector<std::string> row{
        baseline.name,
        util::format("%.2f", hwsim::network_macs(baseline.network) / 1e9),
        util::format("%.2f", hwsim::network_params(baseline.network) / 1e6)};
    for (const auto& sim : sims) {
      row.push_back(util::format(
          "%.1f", sim.network_latency_ms(baseline.network,
                                         sim.profile().default_batch)));
    }
    row.push_back(util::format("%.1f", baseline.paper_top1_err));
    table.add_row(row);
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

}  // namespace

namespace {

/// If `arg` is `--<key>=value`, return the value; nullptr otherwise.
const char* flag_value(const char* arg, const char* key) {
  const std::size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel the process-wide observability flags before subcommand dispatch
  // (util::Cli rejects unknown keys, so they must never reach it).
  std::string metrics_out, trace_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  try {
    for (int i = 0; i < argc; ++i) {
      if (const char* metrics = flag_value(argv[i], "--metrics-out")) {
        metrics_out = metrics;
      } else if (const char* trace = flag_value(argv[i], "--trace-out")) {
        trace_out = trace;
        hsconas::obs::Tracer::enable();
      } else if (const char* level = flag_value(argv[i], "--log-level")) {
        hsconas::util::set_log_level(hsconas::util::parse_log_level(level));
      } else if (const char* sink = flag_value(argv[i], "--log-json")) {
        hsconas::util::set_log_sink(sink);
      } else {
        args.push_back(argv[i]);
      }
    }
  } catch (const hsconas::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const int nargs = static_cast<int>(args.size());
  if (nargs < 2) return usage();
  const std::string command = args[1];
  // Shift argv so each subcommand parses its own flags.
  args[1] = args[0];

  // Flush observability artifacts on every exit path — including errors,
  // where a partial trace is exactly what you want to look at.
  const auto finish = [&](int rc) {
    try {
      if (!metrics_out.empty()) {
        hsconas::obs::save_metrics(metrics_out);
        std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
      }
      if (!trace_out.empty()) {
        hsconas::obs::save_trace(trace_out);
        std::fprintf(stderr, "trace written to %s (load at ui.perfetto.dev)\n",
                     trace_out.c_str());
      }
    } catch (const hsconas::Error& e) {
      std::fprintf(stderr, "error writing observability output: %s\n",
                   e.what());
      if (rc == 0) rc = 1;
    }
    return rc;
  };

  try {
    if (command == "search") return finish(cmd_search(nargs - 1, args.data() + 1));
    if (command == "predict") return finish(cmd_predict(nargs - 1, args.data() + 1));
    if (command == "pareto") return finish(cmd_pareto(nargs - 1, args.data() + 1));
    if (command == "profile") return finish(cmd_profile(nargs - 1, args.data() + 1));
    if (command == "serve") return finish(cmd_serve(nargs - 1, args.data() + 1));
    if (command == "baselines") return finish(cmd_baselines(nargs - 1, args.data() + 1));
    if (command == "--help" || command == "-h") return usage(), 0;
    std::fprintf(stderr, "unknown command '%s'\n\n", command.c_str());
    return usage();
  } catch (const hsconas::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return finish(1);
  }
}
