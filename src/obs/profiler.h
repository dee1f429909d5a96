#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hsconas::obs {

/// Per-operator profiler, layered on the span tracer's switch model:
///
///  - runtime:      Profiler::enable()/disable(); a disabled OpScope is a
///                  single relaxed atomic load — the describe callback is
///                  never invoked, no clock is read.
///  - compile-time: with -DHSCONAS_ENABLE_TRACING=OFF the OpScope class
///                  collapses to an empty object and every hook carries
///                  zero instructions (same HSCONAS_TRACING_DISABLED
///                  define as the tracer).
///
/// nn leaf modules (conv/linear/bn/act/pool/shuffle — including the fused
/// conv+BN+act epilogue path) open an OpScope around their forward and
/// backward bodies, describing the op's geometry, FLOPs and bytes moved.
/// The profiler aggregates wall time, process-CPU time and the calling
/// thread's Workspace scratch high-water mark per *op signature* (geometry
/// string), so N identical layers across M iterations collapse into one
/// row. Warm-up exclusion is the runner's job: run warm-up iterations with
/// the profiler disabled (or call clear() before the counted ones).
///
/// This layer sits below util (stdlib-only), so hwsim/eval can consume
/// snapshots and kernels can host hooks without dependency cycles.

/// Geometry identity of one operator instance. `op` names the module-level
/// path ("conv2d", "conv2d.fused", "conv2d.bwd", "bn", "relu", ...);
/// `kind` is the hwsim pricing category ("conv" | "dwconv" | "linear" |
/// "pool" | "eltwise" | "shuffle" | "other").
struct OpKey {
  std::string op;
  std::string kind;
  long batch = 0;
  long in_ch = 0;
  long out_ch = 0;
  long in_h = 0;
  long in_w = 0;
  long kernel = 1;
  long stride = 1;
  long groups = 1;

  /// Stable aggregation key, e.g.
  /// "conv2d(cin=32,cout=64,k=3,s=1,g=1,in=56x56,b=8)".
  std::string signature() const;
};

/// What a hook reports when its scope opens: the op identity plus analytic
/// work totals for the whole call (all samples in the batch).
struct OpInfo {
  OpKey key;
  double flops = 0.0;  ///< floating-point ops per call (2·MACs for GEMM ops)
  double bytes = 0.0;  ///< activation + weight bytes touched per call
};

/// Aggregated measurements for one op signature.
struct OpStats {
  OpKey key;
  std::string signature;
  std::uint64_t calls = 0;
  double flops_per_call = 0.0;
  double bytes_per_call = 0.0;
  double wall_ms_total = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  double cpu_ms_total = 0.0;  ///< process CPU (includes pool workers)
  double workspace_peak_bytes = 0.0;  ///< max calling-thread scratch HWM
  /// Per-call wall samples for percentiles (first kMaxSamples calls).
  std::vector<double> wall_ms_samples;

  double wall_ms_mean() const;
  /// q in [0, 1], linear interpolation over the retained samples.
  double wall_ms_percentile(double q) const;
  /// FLOPs per byte moved (roofline x-axis).
  double arithmetic_intensity() const;
  /// Achieved GFLOP/s at the mean wall time.
  double achieved_gflops() const;
  /// Achieved GB/s at the mean wall time.
  double achieved_gbs() const;
};

class Profiler {
 public:
  static constexpr std::size_t kMaxSamples = 1024;

#if defined(HSCONAS_TRACING_DISABLED)
  static constexpr bool compiled_in() noexcept { return false; }
  static constexpr bool enabled() noexcept { return false; }
#else
  static constexpr bool compiled_in() noexcept { return true; }
  static bool enabled() noexcept;
#endif
  static void enable();
  static void disable();

  /// Drop all aggregated stats (does not change the enabled state).
  static void clear();

  /// Copy out every signature's aggregate, heaviest wall total first.
  static std::vector<OpStats> snapshot();
};

/// Dependency inversion for scratch-lease attribution: obs sits below
/// tensor, so tensor/workspace.cpp registers these probes at static-init
/// time and the profiler calls through them. Null probes (tensor not
/// linked) report a zero Workspace peak.
struct WorkspaceProbe {
  void (*reset_scope_peak)() = nullptr;        ///< open a watermark window
  std::uint64_t (*scope_peak_bytes)() = nullptr;  ///< max since the reset
};
void set_workspace_probe(WorkspaceProbe probe);

namespace detail {
void profiler_record(const OpInfo& info, double wall_ms, double cpu_ms,
                     double workspace_peak_bytes);
}  // namespace detail

#if defined(HSCONAS_TRACING_DISABLED)

/// Compiled out: an empty object; the describe callback is never
/// instantiated into a call.
class OpScope {
 public:
  template <typename DescribeFn>
  explicit OpScope(DescribeFn&&) noexcept {}
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;
};

#else

/// RAII hook. The describe callback builds the OpInfo and runs only when
/// the profiler is enabled, so geometry/FLOP computation costs nothing on
/// the normal path:
///
///   obs::OpScope prof([&] { return obs::OpInfo{...}; });
///
/// When the span tracer is also enabled, the scope additionally records a
/// trace span named by the op signature, so profiled ops line up with the
/// Perfetto timeline.
class OpScope {
 public:
  template <typename DescribeFn>
  explicit OpScope(DescribeFn&& describe) noexcept {
    if (!Profiler::enabled()) return;
    begin(describe());
  }
  ~OpScope() {
    if (active_) end();
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  void begin(OpInfo info) noexcept;
  void end() noexcept;

  bool active_ = false;
  bool traced_ = false;
  OpInfo info_;
  std::uint64_t wall0_ns_ = 0;
  std::uint64_t trace0_ns_ = 0;
  double cpu0_ms_ = 0.0;
};

#endif  // HSCONAS_TRACING_DISABLED

}  // namespace hsconas::obs
