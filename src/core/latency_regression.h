#pragma once

#include <vector>

#include "core/arch.h"
#include "core/search_space.h"
#include "hwsim/device.h"

namespace hsconas::core {

/// Learned alternative to the Eq. 2–3 LUT model: ridge regression over
/// per-(layer, operator) indicator features, trained on end-to-end
/// measurements. This is the style of predictor used by several
/// hardware-aware NAS systems (layer-wise regression a la nn-Meter); the
/// `bench_ablation_predictors` harness compares it against the paper's
/// LUT + bias approach at equal measurement budgets.
///
/// Features per architecture (dimension 2·L·K + 1):
///   [1] ∪ { 1{opˡ = k} } ∪ { 1{opˡ = k} · cˡ }  for every layer l, op k.
/// The factor-scaled indicator captures the (roughly linear) width
/// dependence of each operator's latency.
class LatencyRegressor {
 public:
  struct Config {
    int train_samples = 200;   ///< end-to-end measurements to fit on
    double ridge_lambda = 1e-2;
    int batch = 1;
    std::uint64_t seed = 1234;
    bool measurement_noise = true;
  };

  /// Samples `train_samples` archs uniformly, measures each end-to-end on
  /// the simulator, and fits the ridge system (normal equations +
  /// Gaussian elimination — the design matrix is tiny).
  LatencyRegressor(const SearchSpace& space,
                   const hwsim::DeviceSimulator& device, Config config);

  double predict_ms(const Arch& arch) const;

  int num_features() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<double> featurize(const Arch& arch) const;

  const SearchSpace& space_;
  Config config_;
  std::vector<double> weights_;
};

/// Solve (A + λI) x = b in place for symmetric positive-definite A via
/// Gaussian elimination with partial pivoting. Exposed for tests.
std::vector<double> solve_ridge(std::vector<std::vector<double>> a,
                                std::vector<double> b, double lambda);

}  // namespace hsconas::core
