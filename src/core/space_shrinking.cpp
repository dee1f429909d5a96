#include "core/space_shrinking.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"

namespace hsconas::core {

SpaceShrinker::SpaceShrinker(SearchSpace& space, AccuracyFn accuracy,
                             const LatencyModel& latency, Objective objective,
                             Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      objective_(objective),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(accuracy_ != nullptr, "SpaceShrinker: null accuracy fn");
  if (config_.samples_per_subspace < 1) {
    throw InvalidArgument("SpaceShrinker: samples_per_subspace must be >= 1");
  }
}

SpaceShrinker::LayerDecision SpaceShrinker::shrink_layer(int layer) {
  HSCONAS_TRACE_SCOPE("shrink.layer");
  const std::vector<int> candidates = space_.allowed_ops(layer);
  HSCONAS_CHECK_MSG(!candidates.empty(), "shrink_layer: no candidates");
  static obs::Counter& q_samples = obs::counter("hsconas.shrink.q_samples");
  static obs::Counter& subspaces =
      obs::counter("hsconas.shrink.subspaces_scored");

  // Q(A_sub) = (1/N) Σ F(arch_i, T),  arch_i ~ U(A_sub)   (Definition 1)
  // All subspaces' samples are drawn first, op by op (one RNG stream,
  // fixed order), then scored in one call and each op's N scores summed
  // in index order, so Q is identical at any worker count.
  const std::size_t n = static_cast<std::size_t>(config_.samples_per_subspace);
  std::vector<Arch> samples;
  samples.reserve(candidates.size() * n);
  for (int op : candidates) {
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(Arch::random_with_fixed_op(space_, rng_, layer, op));
    }
  }
  std::vector<double> accuracy;
  {
    HSCONAS_TRACE_SCOPE("shrink.score", samples.size());
    accuracy = accuracy_(samples);
  }
  HSCONAS_CHECK_MSG(accuracy.size() == samples.size(),
                    "shrink_layer: accuracy fn returned a wrong count");
  q_samples.add(samples.size());
  subspaces.add(candidates.size());

  LayerDecision decision;
  decision.layer = layer;
  decision.quality.reserve(candidates.size());
  double best_q = -1e300;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    double total = 0.0;
    for (std::size_t i = k * n; i < (k + 1) * n; ++i) {
      total += objective_.score(accuracy[i], latency_.predict_ms(samples[i]));
    }
    const double q = total / static_cast<double>(n);
    decision.quality.push_back(q);
    ++decision.subspaces_evaluated;
    ++total_evaluated_;
    if (q > best_q) {
      best_q = q;
      decision.chosen_op = candidates[k];
    }
  }
  space_.fix_op(layer, decision.chosen_op);
  HSCONAS_LOG_DEBUG << "shrink layer " << layer << " -> op "
                    << decision.chosen_op;
  return decision;
}

void SpaceShrinker::export_state(util::ByteWriter& out) const {
  out.rng_state(rng_.state());
  out.i32(total_evaluated_);
}

void SpaceShrinker::import_state(util::ByteReader& in) {
  rng_.set_state(in.rng_state());
  total_evaluated_ = in.i32();
}

std::vector<SpaceShrinker::LayerDecision> SpaceShrinker::shrink_stage(
    int from_layer, int count) {
  HSCONAS_TRACE_SCOPE("shrink.stage");
  if (from_layer < 0 || from_layer >= space_.num_layers() || count < 1 ||
      from_layer - count + 1 < 0) {
    throw InvalidArgument("shrink_stage: bad layer range");
  }
  std::vector<LayerDecision> decisions;
  decisions.reserve(static_cast<std::size_t>(count));
  for (int l = from_layer; l > from_layer - count; --l) {
    decisions.push_back(shrink_layer(l));
  }
  return decisions;
}

}  // namespace hsconas::core
