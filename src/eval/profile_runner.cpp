#include "eval/profile_runner.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/latency_model.h"
#include "core/supernet.h"
#include "hwsim/registry.h"
#include "obs/profiler.h"
#include "obs/timing.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace hsconas::eval {

namespace {

using tensor::Tensor;

/// Pool per-signature stats across architectures: identical geometries
/// recur between archs (stem, head, repeated blocks), and the overall
/// correlation should weight them by everything that was measured.
void merge_stats(std::unordered_map<std::string, obs::OpStats>& pooled,
                 const std::vector<obs::OpStats>& add) {
  for (const obs::OpStats& st : add) {
    auto [it, inserted] = pooled.emplace(st.signature, st);
    if (inserted) continue;
    obs::OpStats& dst = it->second;
    dst.calls += st.calls;
    dst.wall_ms_total += st.wall_ms_total;
    dst.wall_ms_min = std::min(dst.wall_ms_min, st.wall_ms_min);
    dst.wall_ms_max = std::max(dst.wall_ms_max, st.wall_ms_max);
    dst.cpu_ms_total += st.cpu_ms_total;
    dst.workspace_peak_bytes =
        std::max(dst.workspace_peak_bytes, st.workspace_peak_bytes);
    for (double s : st.wall_ms_samples) {
      if (dst.wall_ms_samples.size() >= obs::Profiler::kMaxSamples) break;
      dst.wall_ms_samples.push_back(s);
    }
  }
}

util::Json op_row_json(const OpComparison& cmp) {
  const obs::OpStats& st = cmp.measured;
  util::Json o = util::Json::object();
  o["signature"] = st.signature;
  o["op"] = st.key.op;
  o["kind"] = st.key.kind;
  o["calls"] = static_cast<unsigned long long>(st.calls);
  o["wall_ms_mean"] = st.wall_ms_mean();
  o["wall_ms_p50"] = st.wall_ms_percentile(0.5);
  o["wall_ms_p95"] = st.wall_ms_percentile(0.95);
  o["wall_ms_total"] = st.wall_ms_total;
  o["cpu_ms_total"] = st.cpu_ms_total;
  o["flops_per_call"] = st.flops_per_call;
  o["bytes_per_call"] = st.bytes_per_call;
  o["arithmetic_intensity"] = st.arithmetic_intensity();
  o["achieved_gflops"] = st.achieved_gflops();
  o["achieved_gbs"] = st.achieved_gbs();
  o["workspace_peak_bytes"] = st.workspace_peak_bytes;
  o["priced"] = cmp.priced;
  if (cmp.priced) {
    o["predicted_ms"] = cmp.predicted_ms;
    o["ratio"] = cmp.ratio;
    o["drift"] = cmp.drift;
    o["bound"] = cmp.compute_bound ? "compute" : "memory";
  }
  return o;
}

util::Json calibration_json(const OpTable& table) {
  util::Json c = util::Json::object();
  c["op_kendall_tau"] = table.kendall_tau;
  c["op_spearman_rho"] = table.spearman_rho;
  c["median_ratio"] = table.median_ratio;
  c["measured_total_ms"] = table.measured_total_ms;
  c["predicted_total_ms"] = table.predicted_total_ms;
  c["priced_ops"] = static_cast<unsigned long long>(table.priced_ops);
  c["unpriced_ops"] = static_cast<unsigned long long>(table.unpriced_ops);
  util::Json ops = util::Json::array();
  for (const OpComparison& cmp : table.ops) {
    ops.push_back(op_row_json(cmp));
  }
  c["ops"] = std::move(ops);
  return c;
}

/// Int8 runs price against the int8 LUT, so the space must carry the
/// quantization axis and the sampled archs the quant gene.
core::SearchSpace profile_space(const ProfileConfig& config) {
  core::SearchSpaceConfig space_cfg = config.space;
  if (config.dtype == nn::InferenceDType::kI8) {
    space_cfg.search_quantization = true;
  }
  return core::SearchSpace(space_cfg);
}

}  // namespace

LatencyReport run_profile(const ProfileConfig& config) {
  if (config.num_archs < 1) {
    throw InvalidArgument("profile: need at least one architecture");
  }
  if (config.iters < 1) {
    throw InvalidArgument("profile: need at least one counted iteration");
  }
  if (config.warmup < 0 || config.batch < 1) {
    throw InvalidArgument("profile: bad warmup/batch");
  }
  if (config.fused && config.backward) {
    throw InvalidArgument(
        "profile: --fused is inference-only (backward through a fused "
        "forward is a contract violation)");
  }
  const bool int8 = config.dtype == nn::InferenceDType::kI8;
  if (int8 && config.backward) {
    throw InvalidArgument(
        "profile: --dtype=int8 is inference-only (there is no quantized "
        "backward pass)");
  }
  config.space.validate();

  const core::SearchSpace space = profile_space(config);
  const hwsim::DeviceSimulator device(hwsim::device_by_name(config.device));
  core::LatencyModel::Config model_cfg;
  model_cfg.batch = config.batch;
  model_cfg.bias_samples = 20;
  model_cfg.seed = config.seed;
  model_cfg.measurement_noise = false;
  core::LatencyModel model(space, device, model_cfg);
  LatencyReport report;
  report.bias_ms = model.bias_ms();

  // The archs come from the quant-free space, so they consume the same
  // draws in both dtypes, and the inputs from a stream of their own: at
  // one seed an f32 and an int8 profile time the same ops and factors.
  core::SearchSpaceConfig arch_cfg = space.config();
  arch_cfg.search_quantization = false;
  const core::SearchSpace arch_space(arch_cfg);
  util::Rng arch_rng(config.seed);
  util::Rng input_rng(config.seed ^ 0x1a9075ull);
  const nn::Mode mode = config.backward ? nn::Mode::kTrain
                       : config.fused   ? nn::Mode::kEvalFused
                                        : nn::Mode::kEval;
  obs::Profiler::disable();

  std::unordered_map<std::string, obs::OpStats> pooled;
  try {
    for (int a = 0; a < config.num_archs; ++a) {
      LatencyPoint p;
      p.arch = core::Arch::random(arch_space, arch_rng);
      p.arch.quant = int8 ? 1 : 0;
      core::Supernet net(space, config.seed + static_cast<std::uint64_t>(a),
                         p.arch);
      net.set_mode(mode);

      Tensor images = Tensor::uniform(
          {config.batch, config.space.input_channels, config.space.input_size,
           config.space.input_size},
          -1.0f, 1.0f, input_rng);
      Tensor logits_grad = Tensor::uniform(
          {config.batch, config.space.num_classes}, -0.1f, 0.1f, input_rng);

      if (int8) {
        // PTQ against the very batch being profiled: the observers see
        // exactly the activation ranges the timed loop will produce.
        net.calibrate_quant({images});
      }

      auto run_iteration = [&] {
        Tensor logits = net.forward(images);
        if (config.backward) net.backward(logits_grad);
      };

      // Warm-up excluded: Workspace pools and BN caches settle, profiler
      // stays off so nothing from these iterations enters the aggregates.
      for (int w = 0; w < config.warmup; ++w) run_iteration();

      obs::Profiler::clear();
      obs::Profiler::enable();
      std::vector<double> iter_ms;
      iter_ms.reserve(static_cast<std::size_t>(config.iters));
      for (int i = 0; i < config.iters; ++i) {
        const std::uint64_t t0 = obs::monotonic_ns();
        run_iteration();
        iter_ms.push_back(static_cast<double>(obs::monotonic_ns() - t0) /
                          1e6);
      }
      obs::Profiler::disable();
      const std::vector<obs::OpStats> stats = obs::Profiler::snapshot();
      obs::Profiler::clear();
      merge_stats(pooled, stats);

      p.measured_ms = util::mean(iter_ms);
      p.measured_p50_ms = util::percentile(iter_ms, 50.0);
      p.measured_p95_ms = util::percentile(iter_ms, 95.0);
      p.predicted_ms = model.predict_ms(p.arch);
      p.predicted_uncorrected_ms = model.predict_uncorrected_ms(p.arch);
      p.ops = compare_profile(stats, device);
      report.points.push_back(std::move(p));
    }
  } catch (...) {
    obs::Profiler::disable();
    throw;
  }

  std::vector<obs::OpStats> pooled_vec;
  pooled_vec.reserve(pooled.size());
  for (auto& [sig, st] : pooled) pooled_vec.push_back(std::move(st));
  std::sort(pooled_vec.begin(), pooled_vec.end(),
            [](const obs::OpStats& x, const obs::OpStats& y) {
              if (x.wall_ms_total != y.wall_ms_total) {
                return x.wall_ms_total > y.wall_ms_total;
              }
              return x.signature < y.signature;
            });
  report.ops = compare_profile(pooled_vec, device);
  report.summarize();
  return report;
}

util::Json profile_report_json(const ProfileConfig& config,
                               const LatencyReport& report) {
  util::Json doc = util::Json::object();
  doc["schema"] = "hsconas.profile.v1";
  doc["device"] = config.device;
  doc["batch"] = static_cast<double>(config.batch);
  doc["iters"] = static_cast<double>(config.iters);
  doc["warmup"] = static_cast<double>(config.warmup);
  doc["fused"] = config.fused;
  doc["backward"] = config.backward;
  doc["dtype"] = std::string(nn::inference_dtype_name(config.dtype));
  doc["profiler_compiled_in"] = obs::Profiler::compiled_in();

  const core::SearchSpace space = profile_space(config);
  util::Json archs = util::Json::array();
  for (const LatencyPoint& p : report.points) {
    util::Json a = util::Json::object();
    a["arch"] = p.arch.to_string(space);
    a["measured_ms"] = p.measured_ms;
    a["measured_p50_ms"] = p.measured_p50_ms;
    a["measured_p95_ms"] = p.measured_p95_ms;
    a["predicted_ms"] = p.predicted_ms;
    a["predicted_uncorrected_ms"] = p.predicted_uncorrected_ms;
    a["calibration"] = calibration_json(p.ops);
    archs.push_back(std::move(a));
  }
  doc["archs"] = std::move(archs);
  doc["overall"] = calibration_json(report.ops);

  util::Json corr = util::Json::object();
  corr["arch_kendall_tau"] = report.stats.kendall_tau;
  corr["arch_spearman_rho"] = report.stats.spearman;
  corr["arch_rmse_ms"] = report.stats.rmse_ms;
  corr["bias_ms"] = report.bias_ms;
  corr["op_kendall_tau"] = report.ops.kendall_tau;
  corr["op_spearman_rho"] = report.ops.spearman_rho;
  doc["correlation"] = std::move(corr);

  util::Json worst = util::Json::array();
  for (const OpComparison& cmp : report.ops.worst_offenders()) {
    worst.push_back(op_row_json(cmp));
  }
  doc["worst_offenders"] = std::move(worst);
  return doc;
}

std::string render_profile_report(const ProfileConfig& config,
                                  const LatencyReport& report) {
  std::string out;
  out += util::format(
      "profile: device=%s batch=%d iters=%d warmup=%d fused=%d backward=%d "
      "dtype=%s\n",
      config.device.c_str(), config.batch, config.iters, config.warmup,
      config.fused ? 1 : 0, config.backward ? 1 : 0,
      nn::inference_dtype_name(config.dtype));
  if (!obs::Profiler::compiled_in()) {
    out += "note: profiler compiled out (HSCONAS_ENABLE_TRACING=OFF) — "
           "per-op sections are empty\n";
  }

  util::Table archs({"arch", "measured (ms)", "p50", "p95",
                     "predicted (ms)", "uncorrected", "op τ"});
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const LatencyPoint& p = report.points[i];
    archs.add_row({util::format("#%zu", i),
                   util::format("%.3f", p.measured_ms),
                   util::format("%.3f", p.measured_p50_ms),
                   util::format("%.3f", p.measured_p95_ms),
                   util::format("%.4f", p.predicted_ms),
                   util::format("%.4f", p.predicted_uncorrected_ms),
                   util::format("%.3f", p.ops.kendall_tau)});
  }
  out += "\nper-arch predicted vs measured:\n" + archs.render();

  constexpr std::size_t kTopOps = 12;
  util::Table roofline({"op signature", "calls", "mean (ms)", "GFLOP/s",
                        "GB/s", "AI", "bound", "ws peak (KiB)",
                        "pred (ms)", "ratio"});
  std::size_t shown = 0;
  for (const OpComparison& cmp : report.ops.ops) {
    if (shown++ >= kTopOps) break;
    const obs::OpStats& st = cmp.measured;
    roofline.add_row(
        {st.signature,
         util::format("%llu", static_cast<unsigned long long>(st.calls)),
         util::format("%.4f", st.wall_ms_mean()),
         util::format("%.2f", st.achieved_gflops()),
         util::format("%.2f", st.achieved_gbs()),
         util::format("%.2f", st.arithmetic_intensity()),
         cmp.compute_bound ? "compute" : "memory",
         util::format("%.1f", st.workspace_peak_bytes / 1024.0),
         cmp.priced ? util::format("%.4f", cmp.predicted_ms) : "-",
         cmp.priced ? util::format("%.1f", cmp.ratio) : "-"});
  }
  if (!report.ops.ops.empty()) {
    out += util::format("\nroofline, pooled across archs (top %zu of %zu by "
                        "wall time):\n",
                        std::min(kTopOps, report.ops.ops.size()),
                        report.ops.ops.size());
    out += roofline.render();
  }

  const auto offenders = report.ops.worst_offenders();
  if (!offenders.empty()) {
    util::Table worst(
        {"op signature", "measured (ms)", "pred (ms)", "ratio", "drift"});
    for (const OpComparison& cmp : offenders) {
      worst.add_row({cmp.measured.signature,
                     util::format("%.4f", cmp.measured.wall_ms_mean()),
                     util::format("%.4f", cmp.predicted_ms),
                     util::format("%.1f", cmp.ratio),
                     util::format("%.3f", cmp.drift)});
    }
    out += "\nworst offenders (deviation from the median host/device "
           "ratio):\n" +
           worst.render();
  }

  out += util::format(
      "\ncorrelation: arch kendall_tau=%.3f spearman_rho=%.3f (n=%zu) | "
      "per-op kendall_tau=%.3f spearman_rho=%.3f (n=%zu priced, %zu "
      "unpriced)\n",
      report.stats.kendall_tau, report.stats.spearman, report.points.size(),
      report.ops.kendall_tau, report.ops.spearman_rho, report.ops.priced_ops,
      report.ops.unpriced_ops);
  out += util::format(
      "scale: median measured/predicted ratio=%.2f (host kernels vs "
      "simulated device; ordering, not scale, is what the search needs)\n",
      report.ops.median_ratio);
  return out;
}

}  // namespace hsconas::eval
