#include "eval/latency_report.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>

#include "obs/trace.h"
#include "util/stats.h"

namespace hsconas::eval {

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

LatencyStats latency_stats(std::span<const double> predicted,
                           std::span<const double> measured) {
  LatencyStats s;
  s.rmse_ms = util::rmse(predicted, measured);
  s.mae_ms = util::mae(predicted, measured);
  s.pearson = util::pearson(predicted, measured);
  s.spearman = util::spearman(predicted, measured);
  s.kendall_tau = util::kendall_tau(predicted, measured);
  return s;
}

bool op_from_key(const obs::OpKey& key, hwsim::OpDescriptor* out) {
  using hwsim::OpDescriptor;
  // Backward passes have no forward-inference analogue in the device
  // model (it prices deployment, not training) — leave them unpriced.
  if (ends_with(key.op, ".bwd")) return false;
  const bool spatial_ok = key.in_h > 0 && key.in_w > 0;
  if (key.kind == "conv") {
    if (!spatial_ok || key.in_ch <= 0 || key.out_ch <= 0) return false;
    *out = OpDescriptor::conv(key.in_ch, key.out_ch, key.in_h, key.in_w,
                              key.kernel, key.stride, key.groups);
    return true;
  }
  if (key.kind == "dwconv") {
    if (!spatial_ok || key.in_ch <= 0) return false;
    *out = OpDescriptor::depthwise(key.in_ch, key.in_h, key.in_w, key.kernel,
                                   key.stride);
    return true;
  }
  if (key.kind == "linear") {
    if (key.in_ch <= 0 || key.out_ch <= 0) return false;
    *out = OpDescriptor::linear(key.in_ch, key.out_ch);
    return true;
  }
  if (key.kind == "pool") {
    if (!spatial_ok || key.in_ch <= 0) return false;
    *out = OpDescriptor::pool(key.in_ch, key.in_h, key.in_w, key.kernel,
                              key.stride);
    return true;
  }
  if (key.kind == "eltwise") {
    if (!spatial_ok || key.in_ch <= 0) return false;
    *out = OpDescriptor::elementwise(key.in_ch, key.in_h, key.in_w);
    return true;
  }
  if (key.kind == "shuffle") {
    if (!spatial_ok || key.in_ch <= 0) return false;
    *out = OpDescriptor::shuffle(key.in_ch, key.in_h, key.in_w);
    return true;
  }
  return false;
}

std::vector<OpComparison> OpTable::worst_offenders(std::size_t top_n) const {
  std::vector<OpComparison> priced;
  for (const OpComparison& op : ops) {
    if (op.priced) priced.push_back(op);
  }
  std::sort(priced.begin(), priced.end(),
            [](const OpComparison& a, const OpComparison& b) {
              if (a.drift != b.drift) return a.drift > b.drift;
              return a.measured.signature < b.measured.signature;
            });
  if (priced.size() > top_n) priced.resize(top_n);
  return priced;
}

OpTable compare_profile(const std::vector<obs::OpStats>& stats,
                        const hwsim::DeviceSimulator& device) {
  OpTable table;
  const hwsim::DeviceProfile& profile = device.profile();
  const double ridge =
      profile.mem_bandwidth_gbs > 0.0
          ? profile.peak_gflops / profile.mem_bandwidth_gbs
          : 0.0;

  std::vector<OpComparison> priced, unpriced;
  for (const obs::OpStats& st : stats) {
    if (st.calls == 0) continue;
    OpComparison cmp;
    cmp.measured = st;
    cmp.compute_bound = st.arithmetic_intensity() >= ridge;
    hwsim::OpDescriptor desc;
    if (op_from_key(st.key, &desc)) {
      cmp.priced = true;
      const int batch = static_cast<int>(std::max<long>(1, st.key.batch));
      cmp.predicted_ms = device.op_latency_ms(desc, batch);
      if (cmp.predicted_ms > 0.0) {
        cmp.ratio = st.wall_ms_mean() / cmp.predicted_ms;
      }
      table.measured_total_ms += st.wall_ms_total;
      table.predicted_total_ms +=
          cmp.predicted_ms * static_cast<double>(st.calls);
      priced.push_back(std::move(cmp));
    } else {
      unpriced.push_back(std::move(cmp));
    }
  }
  table.priced_ops = priced.size();
  table.unpriced_ops = unpriced.size();

  // Global host-vs-device scale: the median measured/predicted ratio.
  // Per-op drift is distance from it in log space, so a predictor that is
  // uniformly 100× fast shows zero drift everywhere (perfect ordering).
  std::vector<double> ratios;
  for (const OpComparison& op : priced) {
    if (op.ratio > 0.0) ratios.push_back(op.ratio);
  }
  if (!ratios.empty()) {
    table.median_ratio = util::percentile(ratios, 50.0);
  }
  for (OpComparison& op : priced) {
    if (op.ratio > 0.0 && table.median_ratio > 0.0) {
      op.drift = std::abs(std::log(op.ratio / table.median_ratio));
    }
  }

  std::vector<double> predicted, measured;
  predicted.reserve(priced.size());
  measured.reserve(priced.size());
  for (const OpComparison& op : priced) {
    predicted.push_back(op.predicted_ms);
    measured.push_back(op.measured.wall_ms_mean());
  }
  const LatencyStats s = latency_stats(predicted, measured);
  table.kendall_tau = s.kendall_tau;
  table.spearman_rho = s.spearman;

  table.ops = std::move(priced);
  table.ops.insert(table.ops.end(), std::make_move_iterator(unpriced.begin()),
                   std::make_move_iterator(unpriced.end()));
  return table;
}

void LatencyReport::summarize() {
  std::vector<double> predicted, uncorrected, measured;
  predicted.reserve(points.size());
  uncorrected.reserve(points.size());
  measured.reserve(points.size());
  for (const LatencyPoint& p : points) {
    predicted.push_back(p.predicted_ms);
    uncorrected.push_back(p.predicted_uncorrected_ms);
    measured.push_back(p.measured_ms);
  }
  stats = latency_stats(predicted, measured);
  rmse_uncorrected_ms = latency_stats(uncorrected, measured).rmse_ms;
}

LatencyReport evaluate_latency_model(core::LatencyModel& model, int num_archs,
                                     std::uint64_t seed) {
  HSCONAS_TRACE_SCOPE("eval.latency_model");
  util::Rng rng(seed);
  LatencyReport report;
  report.bias_ms = model.bias_ms();
  report.points.reserve(static_cast<std::size_t>(num_archs));
  for (int i = 0; i < num_archs; ++i) {
    LatencyPoint p;
    p.arch = core::Arch::random(model.space(), rng);
    p.predicted_ms = model.predict_ms(p.arch);
    p.predicted_uncorrected_ms = model.predict_uncorrected_ms(p.arch);
    p.measured_ms = model.measure_ms(p.arch);
    report.points.push_back(std::move(p));
  }
  report.summarize();
  return report;
}

}  // namespace hsconas::eval
