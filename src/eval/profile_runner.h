#pragma once

#include <cstdint>
#include <string>

#include "core/search_space.h"
#include "eval/latency_report.h"
#include "nn/quantize.h"
#include "util/json.h"

namespace hsconas::eval {

/// The measurement side of the latency-model validation loop behind
/// `hsconas profile`: run N sampled architectures as standalone networks
/// with the per-operator profiler armed, then compare what the kernels
/// actually did (per-op wall/CPU time, FLOP/s, bytes, Workspace peak)
/// against the hwsim roofline prices and the LatencyModel's Eq. 2
/// prediction — per op and per arch, with Kendall-τ / Spearman-ρ rank
/// correlation (docs/OBSERVABILITY.md describes the report format).

struct ProfileConfig {
  std::string device = "xavier";
  core::SearchSpaceConfig space = core::SearchSpaceConfig::proxy();
  int num_archs = 3;   ///< sampled architectures
  int iters = 10;      ///< counted (profiled) iterations per arch
  int warmup = 2;      ///< excluded iterations, profiler disabled
  int batch = 4;
  std::uint64_t seed = 1;
  bool fused = false;     ///< eval-mode fused conv/BN/act execution
  bool backward = false;  ///< profile forward+backward (training mode)
  /// kI8 calibrates each sampled network (PTQ on its own input batch),
  /// times the int8 inference path, and prices predictions off the int8
  /// LUT (the sampled archs carry quant = 1). Incompatible with
  /// --backward: the int8 path is inference-only.
  nn::InferenceDType dtype = nn::InferenceDType::kF32;
};

/// Fills the report from host timing: one point per sampled arch (mean,
/// p50 and p95 wall time per iteration, its per-op table) plus the per-op
/// table pooled across archs. Throws InvalidArgument on nonsense configs
/// (fused training, zero iterations, unknown device). Works with the
/// profiler compiled out: arch-level timings and statistics still fill
/// in, the per-op tables stay empty.
LatencyReport run_profile(const ProfileConfig& config);

/// Schema "hsconas.profile.v1": config echo, per-arch op rooflines,
/// pooled ops, worst offenders, correlation block.
util::Json profile_report_json(const ProfileConfig& config,
                               const LatencyReport& report);

/// Human-readable tables: per-arch predicted-vs-measured, the pooled
/// roofline, worst offenders, correlation summary.
std::string render_profile_report(const ProfileConfig& config,
                                  const LatencyReport& report);

}  // namespace hsconas::eval
