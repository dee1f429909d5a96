// End-to-end benchmark of the HSCoNAS user journey under a fixed thread
// budget. A run performs one Fig. 1 search (supernet training -> shrink
// -> tune -> shrink -> tune -> evolution) on a synthetic dataset, then
// rounds of batch-server set-up and closed-loop serving until --seconds
// have passed. Both halves use the configuration of an existing caller:
// the search is `hsconas search --accuracy proxy [--quant]`, the serving
// is `hsconas serve [--dtype int8]` with its defaults.
//
//   perfbench --workload=f32 --seed=1 --seconds=40 --trace=0
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// --trace=0 reports the end-to-end metrics; --trace=1 turns the span
// tracer on and reports the per-layer metrics instead. perfbench/README.md
// describes the workloads and every metric.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/arch.h"
#include "core/objective.h"
#include "core/pipeline.h"
#include "core/search_space.h"
#include "data/synthetic.h"
#include "nn/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batch_server.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace hsconas;

namespace {

using Clock = std::chrono::steady_clock;

// Thread budget, independent of the host's core count: a compute pool of
// kPoolWorkers (parallel loops also run on the calling thread), kLanes
// serving lanes and kClients closed-loop caller threads. Lanes, clients,
// batch size and warm-up are the `hsconas serve` defaults.
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kLanes = 2;
constexpr std::size_t kClients = 8;
constexpr std::size_t kBatchMax = 8;
constexpr std::size_t kWarmupPerClient = 5;

constexpr std::uint64_t kMinServeRounds = 4;
constexpr double kServeSliceSeconds = 1.25;  ///< serving per round
constexpr std::size_t kInputs = 64;          ///< distinct request payloads
/// Share of int8 answers whose top-1 class must match the fp32 answer.
constexpr double kMinInt8Agreement = 0.75;

/// The served network: a fixed six-layer network of the space `hsconas
/// serve` builds (SearchSpaceConfig::proxy()). Fixed, so that a change
/// that moves a search winner does not move the serving numbers.
constexpr const char* kServedArch =
    "shuffle_k3@0.4 | xception@0.5 | shuffle_k7@0.9 | xception@0.9 | "
    "xception@0.2 | shuffle_k3@0.2";

struct Workload {
  const char* name;
  bool search_quantization;  ///< int8 gene + int8 LUT in the search
  nn::InferenceDType dtype;  ///< serving datapath
};

constexpr Workload kWorkloads[] = {
    {"f32", false, nn::InferenceDType::kF32},
    {"int8", true, nn::InferenceDType::kI8},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process, all threads, in seconds. The kernel
/// charges no steal time to it, so it holds still when a shared host is
/// busy while wall time does not.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x100000001B3ull + stream;
  return util::splitmix64(state);
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

// ---- search -----------------------------------------------------------------

/// The proxy branch of `hsconas search --accuracy proxy` (tools/
/// hsconas_cli.cpp) with its default EA of 20 generations x 50, and the
/// dataset that branch builds. The dataset is part of the workload, not of
/// its seeded inputs: the EA's path, and with it the search's work, hangs
/// on the data, so a seeded dataset would move search time by ~25%.
core::PipelineConfig search_config(const Workload& w) {
  core::PipelineConfig cfg;
  cfg.space = core::SearchSpaceConfig::proxy(6, 12, 1);
  cfg.space.search_quantization = w.search_quantization;
  cfg.device = "edge";
  cfg.constraint_ms = 1.2;
  cfg.evolution.generations = 20;
  cfg.evolution.population = 50;
  cfg.evolution.parents = cfg.evolution.population * 2 / 5;
  cfg.use_surrogate = false;
  cfg.initial_epochs = 2;
  cfg.tune_epochs = 1;
  cfg.shrink_layers_per_stage = 1;
  cfg.shrink.samples_per_subspace = 6;
  cfg.eval_batches = 2;
  cfg.train.batch_size = 36;
  cfg.train.lr = 0.08;
  cfg.seed = 1;
  return cfg;
}

data::SyntheticConfig dataset_config() {
  data::SyntheticConfig ds;
  ds.num_classes = 6;
  ds.train_size = 180;
  ds.val_size = 90;
  ds.image_size = 12;
  ds.seed = 77;
  return ds;
}

struct SearchOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool valid = false;
};

/// One timed Fig. 1 search. The winner must lie in the shrunk space, be
/// the EA's best candidate, carry the latency the LUT gives it, and score
/// the Eq. 1 objective of its accuracy and latency.
SearchOutcome run_search(const Workload& w,
                         const data::SyntheticDataset& dataset) {
  const core::PipelineConfig cfg = search_config(w);
  SearchOutcome out;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  core::Pipeline pipeline(cfg);
  const core::PipelineResult r = pipeline.run(&dataset);
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;

  const core::Objective objective{cfg.beta, cfg.constraint_ms};
  out.valid =
      r.best_arch.in_space(pipeline.space()) &&
      r.evolution.best.arch == r.best_arch &&
      r.predicted_latency_ms ==
          pipeline.latency_model().predict_ms(r.best_arch) &&
      std::abs(r.best_score -
               objective.score(r.best_accuracy, r.predicted_latency_ms)) <=
          1e-9 &&
      r.best_accuracy > 0.0 && r.best_accuracy <= 1.0 &&
      r.predicted_latency_ms > 0.0 && std::isfinite(r.predicted_latency_ms);
  return out;
}

/// Phase times of the search from the pipeline's own spans (traced runs).
struct PhaseTimes {
  double lut_ms = 0.0;
  double train_ms = 0.0;
  double shrink_ms = 0.0;
  double evolution_ms = 0.0;
  double run_ms = 0.0;
};

/// Sums the phase spans recorded so far, then clears them.
PhaseTimes take_phases() {
  PhaseTimes p;
  for (const obs::TraceEvent& e : obs::Tracer::snapshot()) {
    const double ms = static_cast<double>(e.dur_ns) / 1e6;
    const std::string name = e.name;
    if (name == "pipeline.latency_model") {
      p.lut_ms += ms;
    } else if (name == "pipeline.supernet_train" ||
               name == "pipeline.tune_stage1" ||
               name == "pipeline.tune_stage2") {
      p.train_ms += ms;
    } else if (name == "pipeline.space_shrinking") {
      p.shrink_ms += ms;
    } else if (name == "pipeline.evolution") {
      p.evolution_ms += ms;
    } else if (name == "pipeline.run") {
      p.run_ms += ms;
    }
  }
  obs::Tracer::clear();
  return p;
}

// ---- serving ----------------------------------------------------------------

using Rows = std::vector<std::vector<float>>;

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::size_t argmax(const std::vector<float>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

/// Serve every input once, one request at a time.
Rows serve_sequentially(serve::BatchServer& server, const Rows& inputs) {
  Rows outputs;
  outputs.reserve(inputs.size());
  for (const std::vector<float>& in : inputs) {
    outputs.emplace_back(server.output_size());
    server.infer(in, outputs.back());
  }
  return outputs;
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Closed loop: `clients` threads each keep one request in flight, for
/// `per_client` requests each, or until `deadline` when `per_client` is 0.
/// With `expected` set, every answer must match it bit for bit.
std::vector<ClientStats> drive(serve::BatchServer& server, const Rows& inputs,
                               const Rows* expected, std::size_t clients,
                               Clock::time_point deadline,
                               std::size_t per_client) {
  std::vector<ClientStats> stats(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& s = stats[c];
      std::vector<float> out(server.output_size());
      for (std::size_t i = 0;; ++i) {
        if (per_client > 0 ? i >= per_client : Clock::now() >= deadline) {
          break;
        }
        const std::size_t k = (c * 13 + i * 5) % inputs.size();
        ++s.attempted;
        const Clock::time_point t0 = Clock::now();
        try {
          server.infer(inputs[k], out);
        } catch (const std::exception&) {
          ++s.failed;
          continue;
        }
        s.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
        if (expected != nullptr && !same_bits(out, (*expected)[k])) {
          ++s.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

// ---- program counters -------------------------------------------------------

double counter_delta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const char* name) {
  return static_cast<double>(after.counter_value(name) -
                             before.counter_value(name));
}

/// Sample count and sum a histogram recorded between two snapshots.
std::pair<double, double> histogram_delta(const obs::MetricsSnapshot& before,
                                          const obs::MetricsSnapshot& after,
                                          const char* name) {
  std::pair<double, double> count_sum{0.0, 0.0};
  for (const auto* snap : {&after, &before}) {
    const double sign = snap == &after ? 1.0 : -1.0;
    for (const auto& h : snap->histograms) {
      if (h.name != name) continue;
      count_sum.first += sign * static_cast<double>(h.count);
      count_sum.second += sign * h.sum_ms;
    }
  }
  return count_sum;
}

/// Serving-layer counters summed over the measured serving slices.
struct ServeCounters {
  double heap_allocs = 0.0;
  double gemm_flops = 0.0;
  double gemm_i8_macs = 0.0;
  double batches = 0.0;
  double forward_ms = 0.0;  ///< summed over batches
  double occupancy = 0.0;   ///< summed over batches

  void add(const obs::MetricsSnapshot& before,
           const obs::MetricsSnapshot& after) {
    heap_allocs +=
        counter_delta(before, after, "hsconas.tensor.pool.heap_allocs");
    gemm_flops += counter_delta(before, after, "hsconas.gemm.flops");
    gemm_i8_macs += counter_delta(before, after, "hsconas.gemm_i8.macs");
    const auto [n, forward] =
        histogram_delta(before, after, "hsconas.serve.forward_ms");
    batches += n;
    forward_ms += forward;
    occupancy +=
        histogram_delta(before, after, "hsconas.serve.batch_occupancy").second;
  }
};

// ---- output -----------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += std::string("\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("perfbench: Fig. 1 search and winner serving, end to end");
  cli.add_option("workload", "f32", "f32 | int8");
  cli.add_option("seed", "1", "seed of the request payloads");
  cli.add_option("seconds", "40", "measured seconds");
  cli.add_option("trace", "0", "1 = per-layer metrics from a traced run");
  if (!cli.parse(argc, argv)) return 2;

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cli.get("workload") == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cli.get("workload").c_str());
    return 2;
  }
  const Workload& w = *workload;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double seconds = cli.get_double("seconds");
  const bool trace = cli.get_int("trace") != 0;

  util::ThreadPool::configure_global(kPoolWorkers);
  if (trace) obs::Tracer::enable();

  const core::SearchSpace space(core::SearchSpaceConfig::proxy());
  const core::Arch arch = core::Arch::from_string(space, kServedArch);
  serve::ServerConfig cfg;
  cfg.workers = kLanes;
  cfg.batch_max = kBatchMax;
  cfg.seed = 42;
  cfg.dtype = w.dtype;

  // Inputs: the request payloads. The search's dataset and seed are part
  // of the workload.
  const data::SyntheticDataset dataset(dataset_config());
  Rows inputs(kInputs);
  util::Rng input_rng(derive_seed(seed, 0x1A9));

  // fp32 reference answers, one request at a time through a one-lane
  // server; batched fp32 serving is bit-identical to this by contract.
  Rows reference;
  {
    serve::ServerConfig ref_cfg = cfg;
    ref_cfg.workers = 1;
    ref_cfg.batch_max = 1;
    ref_cfg.dtype = nn::InferenceDType::kF32;
    serve::BatchServer ref_server(space, arch, ref_cfg);
    for (std::vector<float>& in : inputs) {
      in.resize(ref_server.input_size());
      for (float& v : in) v = static_cast<float>(input_rng.uniform(-1.0, 1.0));
    }
    reference = serve_sequentially(ref_server, inputs);
  }

  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  const Clock::time_point start = Clock::now();

  // ---- one search ----
  const obs::MetricsSnapshot before_search = obs::metrics_snapshot();
  const SearchOutcome search = run_search(w, dataset);
  const obs::MetricsSnapshot after_search = obs::metrics_snapshot();
  ++attempted;
  if (!search.valid) ++failed;
  const PhaseTimes phases = trace ? take_phases() : PhaseTimes{};
  const double dropped_spans =
      trace ? static_cast<double>(obs::Tracer::dropped()) : 0.0;

  // ---- serving rounds: set-up and one slice each, until --seconds ----
  std::vector<double> setup_s, setup_cpu_s;
  // Per serving slice: latency percentiles, throughput, CPU per request.
  std::vector<double> slice_p50, slice_p95, slice_rps, slice_cpu_us;
  std::size_t served = 0;
  double latency_sum_ms = 0.0;
  ServeCounters serving;
  Rows canonical;
  double agreement = 0.0;
  const auto tally = [&](const std::vector<ClientStats>& stats,
                         std::vector<double>* keep_latency) {
    for (const ClientStats& c : stats) {
      attempted += c.attempted;
      failed += c.failed;
      if (keep_latency != nullptr) {
        keep_latency->insert(keep_latency->end(), c.latency_ms.begin(),
                             c.latency_ms.end());
      }
    }
  };

  for (std::uint64_t round = 0;
       round < kMinServeRounds || seconds_since(start) < seconds; ++round) {
    const Rows* expect = round == 0 ? nullptr : &canonical;
    // Set-up as `hsconas serve` does it: construct the server (replicas;
    // int8 calibration), then warm-up requests from every client.
    const double setup_cpu0 = process_cpu_s();
    const Clock::time_point setup_start = Clock::now();
    serve::BatchServer server(space, arch, cfg);
    tally(drive(server, inputs, expect, kClients, Clock::time_point::max(),
                kWarmupPerClient),
          nullptr);
    setup_s.push_back(seconds_since(setup_start));
    setup_cpu_s.push_back(process_cpu_s() - setup_cpu0);

    // Untimed fill: waves of 1..kBatchMax clients, so that both lanes
    // have run every batch size before the slice and their tensor pools
    // hold every buffer shape the slice can ask for.
    for (std::size_t c = 1; c <= kBatchMax; ++c) {
      tally(drive(server, inputs, expect, c, Clock::time_point::max(),
                  kWarmupPerClient),
            nullptr);
    }

    if (round == 0) {
      // The server's own answers, one at a time. Every later answer, from
      // any set-up, lane or batch composition, must match them bit for bit.
      canonical = serve_sequentially(server, inputs);
      std::size_t agree = 0;
      for (std::size_t k = 0; k < kInputs; ++k) {
        if (argmax(canonical[k]) == argmax(reference[k])) ++agree;
        if (w.dtype == nn::InferenceDType::kF32 &&
            !same_bits(canonical[k], reference[k])) {
          correct = false;
        }
      }
      agreement = static_cast<double>(agree) / static_cast<double>(kInputs);
      if (agreement < kMinInt8Agreement) correct = false;
    }

    const obs::MetricsSnapshot before_serve = obs::metrics_snapshot();
    const double serve_cpu0 = process_cpu_s();
    const Clock::time_point serve_start = Clock::now();
    const std::vector<ClientStats> stats = drive(
        server, inputs, &canonical, kClients,
        serve_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kServeSliceSeconds)),
        0);
    const double slice_s = seconds_since(serve_start);
    const double slice_cpu_s = process_cpu_s() - serve_cpu0;
    const obs::MetricsSnapshot after_serve = obs::metrics_snapshot();
    serving.add(before_serve, after_serve);
    std::vector<double> latency;
    tally(stats, &latency);
    const auto n =
        static_cast<double>(std::max<std::size_t>(latency.size(), 1));
    slice_p50.push_back(quantile(latency, 0.50));
    slice_p95.push_back(quantile(latency, 0.95));
    slice_rps.push_back(static_cast<double>(latency.size()) / slice_s);
    slice_cpu_us.push_back(slice_cpu_s * 1e6 / n);
    served += latency.size();
    for (double l : latency) latency_sum_ms += l;
  }
  if (failed > 0 || served == 0) correct = false;

  std::fprintf(stderr,
               "perfbench %s: 1 search %.2f s, %zu serving rounds, %zu "
               "requests, %zu failed, int8/f32 top-1 agreement %.3f\n",
               w.name, search.wall_s, slice_rps.size(), served, failed,
               agreement);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"search_cpu_s", search.cpu_s, "s"},
        {"serve_cpu_us", median(slice_cpu_us), "us"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const double requests =
        static_cast<double>(std::max<std::size_t>(served, 1));
    const double forward_ms =
        serving.batches > 0.0 ? serving.forward_ms / serving.batches : 0.0;
    metrics = {
        {"search_s", search.wall_s, "s"},
        {"search_lut_ms", phases.lut_ms, "ms"},
        {"search_train_ms", phases.train_ms, "ms"},
        {"search_shrink_ms", phases.shrink_ms, "ms"},
        {"search_evolution_ms", phases.evolution_ms, "ms"},
        {"search_unattributed_ms",
         phases.run_ms - phases.lut_ms - phases.train_ms - phases.shrink_ms -
             phases.evolution_ms,
         "ms"},
        {"search_train_steps",
         counter_delta(before_search, after_search, "hsconas.train.steps"),
         "count"},
        {"search_candidates",
         counter_delta(before_search, after_search,
                       "hsconas.evolution.candidates_evaluated"),
         "count"},
        {"search_dropped_spans", dropped_spans, "count"},
        {"setup_cpu_s", median(setup_cpu_s), "s"},
        {"serve_p50_ms", median(slice_p50), "ms"},
        {"serve_p95_ms", median(slice_p95), "ms"},
        {"serve_rps", median(slice_rps), "1/s"},
        {"serve_forward_ms", forward_ms, "ms"},
        {"serve_wait_ms", latency_sum_ms / requests - forward_ms, "ms"},
        {"serve_batch_occupancy",
         serving.batches > 0.0 ? serving.occupancy / serving.batches : 0.0,
         "count"},
        {"serve_heap_allocs_per_kreq", serving.heap_allocs * 1e3 / requests,
         "count"},
        {"serve_gemm_mflop_per_req", serving.gemm_flops / 1e6 / requests,
         "count"},
        {"serve_gemm_i8_mmac_per_req", serving.gemm_i8_macs / 1e6 / requests,
         "count"},
        {"serve_top1_agreement", agreement, "ratio"},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
