#pragma once

#include <vector>

#include "core/arch.h"
#include "core/latency_model.h"
#include "core/lowering.h"
#include "core/search_space.h"
#include "hwsim/energy.h"

namespace hsconas::core {

/// Energy analogue of the Eq. 2–3 latency model, implementing the paper's
/// §V future-work direction: per-(layer, operator, factor) *dynamic*
/// energies profiled in isolation, summed per architecture, plus the
/// static-power draw integrated over the latency model's runtime estimate,
/// plus a scalar bias recovering what neither captures (inter-layer
/// hand-off traffic).
///
/// The static-power coupling matters: on small networks most energy is
/// static_watts × latency, which varies per architecture and therefore
/// cannot live in a constant bias.
class EnergyModel {
 public:
  struct Config {
    int batch = 1;
    int bias_samples = 50;
    std::uint64_t seed = 321;
    bool measurement_noise = true;
  };

  /// `latency` is optional but strongly recommended (see above); pass
  /// nullptr to fall back to a pure LUT + constant-bias model. Referenced
  /// objects must outlive the model.
  EnergyModel(const SearchSpace& space, const hwsim::EnergySimulator& energy,
              Config config, const LatencyModel* latency = nullptr);

  /// LUT sum + bias, millijoules per batch.
  double predict_mj(const Arch& arch) const;
  double predict_uncorrected_mj(const Arch& arch) const;

  /// Simulated "on-device" measurement without measurement noise.
  double true_mj(const Arch& arch) const;

  double bias_mj() const { return bias_; }
  double lut_mj(int layer, int op, int factor) const;
  const SearchSpace& space() const { return space_; }

 private:
  void build_lut();
  void calibrate_bias();

  const SearchSpace& space_;
  const hwsim::EnergySimulator& energy_;
  const LatencyModel* latency_;
  Config config_;
  std::vector<double> lut_;
  double stem_mj_ = 0.0;
  double head_mj_ = 0.0;
  double bias_ = 0.0;
};

}  // namespace hsconas::core
