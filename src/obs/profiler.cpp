#include "obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"

namespace hsconas::obs {

namespace {

void append_field(std::string& s, const char* name, long v) {
  s += name;
  s += '=';
  s += std::to_string(v);
}

struct ProfilerRegistry {
  std::mutex mu;
  std::unordered_map<std::string, OpStats> stats;
};

ProfilerRegistry& registry() {
  static ProfilerRegistry* reg = new ProfilerRegistry();  // never destroyed
  return *reg;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

/// Registered by tensor/workspace.cpp; written once during static init,
/// read on every profiled scope. Plain pointers: constant-initialized, so
/// there is no init-order hazard with the registering TU.
WorkspaceProbe& workspace_probe() {
  static WorkspaceProbe probe;
  return probe;
}

}  // namespace

std::string OpKey::signature() const {
  std::string s = op;
  s += '(';
  append_field(s, "cin", in_ch);
  s += ',';
  append_field(s, "cout", out_ch);
  s += ',';
  append_field(s, "k", kernel);
  s += ',';
  append_field(s, "s", stride);
  s += ',';
  append_field(s, "g", groups);
  s += ",in=";
  s += std::to_string(in_h);
  s += 'x';
  s += std::to_string(in_w);
  s += ',';
  append_field(s, "b", batch);
  s += ')';
  return s;
}

double OpStats::wall_ms_mean() const {
  return calls == 0 ? 0.0 : wall_ms_total / static_cast<double>(calls);
}

double OpStats::wall_ms_percentile(double q) const {
  if (wall_ms_samples.empty()) return 0.0;
  std::vector<double> sorted = wall_ms_samples;
  std::sort(sorted.begin(), sorted.end());
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double OpStats::arithmetic_intensity() const {
  return bytes_per_call > 0.0 ? flops_per_call / bytes_per_call : 0.0;
}

double OpStats::achieved_gflops() const {
  const double ms = wall_ms_mean();
  return ms > 0.0 ? flops_per_call / (ms * 1e6) : 0.0;
}

double OpStats::achieved_gbs() const {
  const double ms = wall_ms_mean();
  return ms > 0.0 ? bytes_per_call / (ms * 1e6) : 0.0;
}

#if !defined(HSCONAS_TRACING_DISABLED)
bool Profiler::enabled() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}
#endif

void Profiler::enable() {
  enabled_flag().store(true, std::memory_order_relaxed);
}

void Profiler::disable() {
  enabled_flag().store(false, std::memory_order_relaxed);
}

void Profiler::clear() {
  ProfilerRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.stats.clear();
}

std::vector<OpStats> Profiler::snapshot() {
  std::vector<OpStats> out;
  {
    ProfilerRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    out.reserve(reg.stats.size());
    for (const auto& [sig, st] : reg.stats) out.push_back(st);
  }
  std::sort(out.begin(), out.end(), [](const OpStats& a, const OpStats& b) {
    if (a.wall_ms_total != b.wall_ms_total) {
      return a.wall_ms_total > b.wall_ms_total;
    }
    return a.signature < b.signature;  // deterministic tie-break
  });
  return out;
}

void set_workspace_probe(WorkspaceProbe probe) { workspace_probe() = probe; }

namespace detail {

void profiler_record(const OpInfo& info, double wall_ms, double cpu_ms,
                     double workspace_peak_bytes) {
  static Counter& recorded = counter("hsconas.profiler.ops_recorded");
  recorded.add();
  const std::string sig = info.key.signature();
  ProfilerRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  OpStats& st = reg.stats[sig];
  if (st.calls == 0) {
    st.key = info.key;
    st.signature = sig;
    st.flops_per_call = info.flops;
    st.bytes_per_call = info.bytes;
    st.wall_ms_min = wall_ms;
    st.wall_ms_max = wall_ms;
  }
  ++st.calls;
  st.wall_ms_total += wall_ms;
  st.wall_ms_min = std::min(st.wall_ms_min, wall_ms);
  st.wall_ms_max = std::max(st.wall_ms_max, wall_ms);
  st.cpu_ms_total += std::max(0.0, cpu_ms);
  st.workspace_peak_bytes =
      std::max(st.workspace_peak_bytes, workspace_peak_bytes);
  if (st.wall_ms_samples.size() < Profiler::kMaxSamples) {
    st.wall_ms_samples.push_back(wall_ms);
  }
}

}  // namespace detail

#if !defined(HSCONAS_TRACING_DISABLED)

void OpScope::begin(OpInfo info) noexcept {
  active_ = true;
  info_ = std::move(info);
  const WorkspaceProbe& probe = workspace_probe();
  if (probe.reset_scope_peak != nullptr) probe.reset_scope_peak();
  if (Tracer::enabled()) {
    // Mirror TraceScope so profiled ops land on the Perfetto timeline at
    // the right nesting depth, named by their signature. The span and
    // the profile row share one wall reading at each edge.
    traced_ = true;
    ++detail::thread_depth();
  }
  cpu0_ms_ = process_cpu_ms();
  wall0_ns_ = monotonic_ns();
}

void OpScope::end() noexcept {
  const std::uint64_t wall1_ns = monotonic_ns();
  const double cpu1_ms = process_cpu_ms();
  const WorkspaceProbe& probe = workspace_probe();
  const double ws_peak =
      probe.scope_peak_bytes != nullptr
          ? static_cast<double>(probe.scope_peak_bytes())
          : 0.0;
  detail::profiler_record(
      info_, static_cast<double>(wall1_ns - wall0_ns_) / 1e6,
      cpu1_ms - cpu0_ms_, ws_peak);
  if (traced_) {
    --detail::thread_depth();
    detail::record_span(info_.key.signature().c_str(), wall0_ns_,
                        wall1_ns - wall0_ns_, detail::thread_depth());
  }
}

#endif  // !HSCONAS_TRACING_DISABLED

}  // namespace hsconas::obs
