#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/latency_model.h"
#include "hwsim/device.h"
#include "hwsim/op_descriptor.h"
#include "obs/profiler.h"

namespace hsconas::eval {

/// Predicted-vs-measured latency — the check behind Fig. 3 and §III-A:
/// the Eq. 2 prediction (LUT sum + bias B) against measured latency per
/// architecture, scored by RMSE with and without B plus rank correlation.
/// Two fillers produce the one report type: evaluate_latency_model
/// measures on the device simulator, run_profile (eval/profile_runner.h)
/// times the host runtime and adds per-op tables.

/// Error and correlation of one predictor over (predicted, measured) pairs.
struct LatencyStats {
  double rmse_ms = 0.0;
  double mae_ms = 0.0;
  double pearson = 0.0;
  double spearman = 0.0;
  double kendall_tau = 0.0;  ///< tau-a; 0 for fewer than two pairs
};

/// The one place these statistics are computed: the arch level of both
/// fillers, the per-op tables and the predictor ablation all call it.
LatencyStats latency_stats(std::span<const double> predicted,
                           std::span<const double> measured);

/// One profiled op (obs::Profiler::snapshot() row) against what the
/// device simulator's roofline predicts for the same geometry.
struct OpComparison {
  obs::OpStats measured;
  bool priced = false;         ///< false for backward / unpriceable ops
  double predicted_ms = 0.0;   ///< simulator price at the measured batch
  double ratio = 0.0;          ///< measured mean / predicted
  double drift = 0.0;          ///< |log(ratio / median ratio)|
  bool compute_bound = false;  ///< measured AI >= the device's ridge point
};

/// Per-op predicted-vs-measured table. Rank correlation is the headline —
/// "One Proxy Device Is Enough" shows it is *ordering*, not absolute
/// scale, that makes a latency predictor usable for hardware-aware search.
/// The scale gap between host kernels and the simulated device is folded
/// out through the median measured/predicted ratio; per-op deviation from
/// that median (in log space) is the "drift" that ranks the worst
/// offenders.
struct OpTable {
  /// Priced rows first (measured wall-total order), then unpriced rows.
  std::vector<OpComparison> ops;
  double kendall_tau = 0.0;   ///< over priced (predicted, measured mean)
  double spearman_rho = 0.0;
  double median_ratio = 0.0;  ///< global host-vs-device scale factor
  double measured_total_ms = 0.0;   ///< Σ measured wall totals (priced)
  double predicted_total_ms = 0.0;  ///< Σ predicted × calls (priced)
  std::size_t priced_ops = 0;
  std::size_t unpriced_ops = 0;

  /// Priced rows sorted by drift, worst first.
  std::vector<OpComparison> worst_offenders(std::size_t top_n = 5) const;
};

/// Map a profiled op key onto a simulator-priceable descriptor. Returns
/// false for backward passes (op ending in ".bwd") and for geometries the
/// analytic device model has no category for.
bool op_from_key(const obs::OpKey& key, hwsim::OpDescriptor* out);

OpTable compare_profile(const std::vector<obs::OpStats>& stats,
                        const hwsim::DeviceSimulator& device);

struct LatencyPoint {
  core::Arch arch;
  double predicted_ms = 0.0;              ///< Eq. 2: LUT sum + B
  double predicted_uncorrected_ms = 0.0;  ///< LUT sum alone
  double measured_ms = 0.0;  ///< simulated run, or mean host wall time
  double measured_p50_ms = 0.0;  ///< host timing only; 0 when simulated
  double measured_p95_ms = 0.0;
  OpTable ops;  ///< per-op table; empty when simulated
};

struct LatencyReport {
  std::vector<LatencyPoint> points;
  double bias_ms = 0.0;              ///< the model's B (Eq. 3)
  LatencyStats stats;                ///< predicted (with B) vs measured
  double rmse_uncorrected_ms = 0.0;  ///< RMSE without B
  OpTable ops;  ///< per-op table pooled over all points; empty if simulated

  /// Fill `stats` and `rmse_uncorrected_ms` from `points`.
  void summarize();
};

/// Sample `num_archs` uniform architectures, predict each and "measure" it
/// on the model's device simulator.
LatencyReport evaluate_latency_model(core::LatencyModel& model, int num_archs,
                                     std::uint64_t seed);

}  // namespace hsconas::eval
