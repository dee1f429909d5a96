#include "core/latency_regression.h"

#include <cmath>

#include "core/lowering.h"
#include "util/error.h"

namespace hsconas::core {

std::vector<double> solve_ridge(std::vector<std::vector<double>> a,
                                std::vector<double> b, double lambda) {
  const std::size_t n = a.size();
  HSCONAS_CHECK_MSG(b.size() == n, "solve_ridge: dimension mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    HSCONAS_CHECK_MSG(a[i].size() == n, "solve_ridge: non-square matrix");
    a[i][i] += lambda;
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) {
      throw InvalidArgument("solve_ridge: singular system (raise lambda)");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double inv = 1.0 / a[col][col];
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= a[i][k] * x[k];
    x[i] = acc / a[i][i];
  }
  return x;
}

std::vector<double> LatencyRegressor::featurize(const Arch& arch) const {
  const int L = space_.num_layers();
  const int K = space_.config().num_ops;
  std::vector<double> phi(1 + 2 * static_cast<std::size_t>(L) * K, 0.0);
  phi[0] = 1.0;  // intercept
  for (int l = 0; l < L; ++l) {
    const int op = arch.ops[static_cast<std::size_t>(l)];
    const double c = space_.config().channel_factors.at(
        static_cast<std::size_t>(arch.factors[static_cast<std::size_t>(l)]));
    const std::size_t base = 1 + 2 * (static_cast<std::size_t>(l) * K + op);
    phi[base] = 1.0;
    phi[base + 1] = c;
  }
  return phi;
}

LatencyRegressor::LatencyRegressor(const SearchSpace& space,
                                   const hwsim::DeviceSimulator& device,
                                   Config config)
    : space_(space), config_(config) {
  if (config_.train_samples < 2 || config_.batch < 1 ||
      config_.ridge_lambda < 0.0) {
    throw InvalidArgument("LatencyRegressor: bad configuration");
  }

  util::Rng rng(config_.seed);
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  features.reserve(static_cast<std::size_t>(config_.train_samples));
  for (int i = 0; i < config_.train_samples; ++i) {
    const Arch arch = Arch::random(space_, rng);
    features.push_back(featurize(arch));
    targets.push_back(device.network_latency_ms(
        lower_network(arch, space_), config_.batch,
        config_.measurement_noise ? &rng : nullptr));
  }

  const std::size_t dim = features.front().size();
  std::vector<std::vector<double>> xtx(dim, std::vector<double>(dim, 0.0));
  std::vector<double> xty(dim, 0.0);
  for (std::size_t s = 0; s < features.size(); ++s) {
    const auto& phi = features[s];
    for (std::size_t i = 0; i < dim; ++i) {
      if (phi[i] == 0.0) continue;
      xty[i] += phi[i] * targets[s];
      for (std::size_t j = i; j < dim; ++j) xtx[i][j] += phi[i] * phi[j];
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < i; ++j) xtx[i][j] = xtx[j][i];
  }
  weights_ = solve_ridge(std::move(xtx), std::move(xty),
                         config_.ridge_lambda);
}

double LatencyRegressor::predict_ms(const Arch& arch) const {
  arch.validate(space_);
  const auto phi = featurize(arch);
  double pred = 0.0;
  for (std::size_t i = 0; i < phi.size(); ++i) {
    pred += weights_[i] * phi[i];
  }
  return pred;
}

}  // namespace hsconas::core
