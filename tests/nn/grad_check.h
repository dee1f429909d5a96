#pragma once

// Finite-difference gradient checking for nn::Module implementations.
//
// The scalar probe loss is L = Σ w ⊙ forward(x) with fixed random weights
// w, so dL/d(output) = w. Analytic gradients come from backward(w);
// numeric gradients from central differences on the probe loss. fp32
// arithmetic bounds the achievable agreement, hence the loose-ish default
// tolerance.

#include <cstddef>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace hsconas::testutil {

struct GradCheckResult {
  double max_input_rel_err = 0.0;
  double max_param_rel_err = 0.0;
  int probes_total = 0;
  int probes_skipped = 0;  ///< non-smooth points detected (ReLU kinks)
};

inline double rel_err(double analytic, double numeric) {
  const double denom = std::abs(analytic) + std::abs(numeric) + 1e-3;
  return std::abs(analytic - numeric) / denom;
}

inline double probe_loss(nn::Module& module, const tensor::Tensor& x,
                         const tensor::Tensor& w) {
  const tensor::Tensor y = module.forward(x);
  double loss = 0.0;
  for (long i = 0; i < y.numel(); ++i) {
    loss += static_cast<double>(y.flat()[static_cast<std::size_t>(i)]) *
            w.flat()[static_cast<std::size_t>(i)];
  }
  return loss;
}

/// Check input and parameter gradients of `module` at input `x`.
/// `probes` limits how many coordinates are finite-differenced (spread
/// evenly); eps is the central-difference step.
inline GradCheckResult grad_check(nn::Module& module, tensor::Tensor x,
                                  std::uint64_t seed, int probes = 24,
                                  float eps = 1e-2f) {
  util::Rng rng(seed);
  module.set_mode(nn::Mode::kTrain);

  // Forward once to learn the output shape, then build the probe weights.
  const tensor::Tensor y0 = module.forward(x);
  const tensor::Tensor w =
      tensor::Tensor::uniform(y0.shape(), -1.0f, 1.0f, rng);

  // Analytic gradients.
  std::vector<nn::Parameter*> params;
  module.collect_params(params);
  for (nn::Parameter* p : params) p->zero_grad();
  module.forward(x);
  const tensor::Tensor dx = module.backward(w);

  GradCheckResult result;

  const auto central_diff = [&](float& coord, float saved, float h) {
    coord = saved + h;
    const double up = probe_loss(module, x, w);
    coord = saved - h;
    const double down = probe_loss(module, x, w);
    coord = saved;
    return (up - down) / (2.0 * static_cast<double>(h));
  };

  const auto check_coords = [&](tensor::Tensor& target,
                                const tensor::Tensor& analytic,
                                double& worst) {
    const long n = target.numel();
    const long step = std::max<long>(1, n / probes);
    for (long i = 0; i < n; i += step) {
      float& coord = target.flat()[static_cast<std::size_t>(i)];
      const float saved = coord;
      const double num_full = central_diff(coord, saved, eps);
      const double num_half = central_diff(coord, saved, eps * 0.5f);
      ++result.probes_total;
      // Richardson consistency: for a smooth loss the two central estimates
      // agree to O(eps²). ReLU-after-BN compositions put activations at the
      // kink, where finite differences straddle a derivative jump and stay
      // wrong at ANY step size — detect the inconsistency and skip.
      if (rel_err(num_full, num_half) > 0.05) {
        ++result.probes_skipped;
        continue;
      }
      const double err = rel_err(
          analytic.flat()[static_cast<std::size_t>(i)], num_half);
      if (err > worst) worst = err;
    }
  };

  check_coords(x, dx, result.max_input_rel_err);
  for (nn::Parameter* p : params) {
    check_coords(p->value, p->grad, result.max_param_rel_err);
  }
  return result;
}

}  // namespace hsconas::testutil
