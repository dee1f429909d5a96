#include "core/energy_model.h"

#include "util/error.h"

namespace hsconas::core {

EnergyModel::EnergyModel(const SearchSpace& space,
                         const hwsim::EnergySimulator& energy, Config config,
                         const LatencyModel* latency)
    : space_(space),
      energy_(energy),
      latency_(latency),
      config_(config) {
  if (config_.batch < 1 || config_.bias_samples < 1) {
    throw InvalidArgument("EnergyModel: batch and bias_samples must be >= 1");
  }
  build_lut();
  calibrate_bias();
}

void EnergyModel::build_lut() {
  const int L = space_.num_layers();
  const int K = space_.config().num_ops;
  const int F = static_cast<int>(space_.config().channel_factors.size());
  lut_.assign(static_cast<std::size_t>(L) * K * F, 0.0);
  for (int l = 0; l < L; ++l) {
    const LayerInfo& info = space_.layer(l);
    for (int op = 0; op < K; ++op) {
      for (int f = 0; f < F; ++f) {
        const double factor =
            space_.config().channel_factors[static_cast<std::size_t>(f)];
        lut_[(static_cast<std::size_t>(l) * K + op) * F + f] =
            energy_.layer_energy_mj(
                lower_layer(info, space_.config().family, op, factor),
                config_.batch);
      }
    }
  }
  long size = space_.body_input_size();
  for (int l = 0; l < L; ++l) {
    if (space_.layer(l).stride == 2) size = (size + 1) / 2;
  }
  stem_mj_ =
      energy_.layer_energy_mj(lower_stem(space_.config()), config_.batch);
  head_mj_ = energy_.layer_energy_mj(lower_head(space_.config(), size),
                                     config_.batch);
}

void EnergyModel::calibrate_bias() {
  util::Rng rng(config_.seed);
  double gap = 0.0;
  for (int i = 0; i < config_.bias_samples; ++i) {
    const Arch arch = Arch::random(space_, rng);
    const double on_device = energy_.network_energy_mj(
        lower_network(arch, space_), config_.batch,
        config_.measurement_noise ? &rng : nullptr);
    gap += on_device - predict_uncorrected_mj(arch);
  }
  bias_ = gap / static_cast<double>(config_.bias_samples);
}

double EnergyModel::lut_mj(int layer, int op, int factor) const {
  const int K = space_.config().num_ops;
  const int F = static_cast<int>(space_.config().channel_factors.size());
  HSCONAS_CHECK_MSG(layer >= 0 && layer < space_.num_layers() && op >= 0 &&
                        op < K && factor >= 0 && factor < F,
                    "EnergyModel::lut_mj: index out of range");
  return lut_[(static_cast<std::size_t>(layer) * K + op) * F + factor];
}

double EnergyModel::predict_uncorrected_mj(const Arch& arch) const {
  arch.validate(space_);
  const int K = space_.config().num_ops;
  const int F = static_cast<int>(space_.config().channel_factors.size());
  double total = stem_mj_ + head_mj_;
  for (int l = 0; l < space_.num_layers(); ++l) {
    total += lut_[(static_cast<std::size_t>(l) * K +
                   arch.ops[static_cast<std::size_t>(l)]) *
                      F +
                  arch.factors[static_cast<std::size_t>(l)]];
  }
  if (latency_ != nullptr) {
    // Static draw over the predicted runtime: W · ms = mJ.
    total += energy_.profile().static_watts * latency_->predict_ms(arch);
  }
  return total;
}

double EnergyModel::predict_mj(const Arch& arch) const {
  return predict_uncorrected_mj(arch) + bias_;
}

double EnergyModel::true_mj(const Arch& arch) const {
  return energy_.network_energy_mj(lower_network(arch, space_),
                                   config_.batch, nullptr);
}

}  // namespace hsconas::core
