#include "core/searchers.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace hsconas::core {

RandomSearch::RandomSearch(const SearchSpace& space, AccuracyFn accuracy,
                           const LatencyModel& latency, Objective objective,
                           Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      objective_(objective),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(accuracy_ != nullptr, "RandomSearch: null accuracy");
  if (config_.evaluations < 1) {
    throw InvalidArgument("RandomSearch: evaluations must be >= 1");
  }
}

RandomSearch::Result RandomSearch::run() {
  HSCONAS_TRACE_SCOPE("random_search.run");
  static obs::Counter& evaluated =
      obs::counter("hsconas.random_search.candidates_evaluated");
  Result result;
  result.best.score = -1e300;
  for (int i = 0; i < config_.evaluations; ++i) {
    evaluated.add();
    EvolutionSearch::Candidate c;
    c.arch = Arch::random(space_, rng_);
    c.accuracy = accuracy_({c.arch}).front();
    c.latency_ms = latency_.predict_ms(c.arch);
    c.score = objective_.score(c.accuracy, c.latency_ms);
    if (c.score > result.best.score) result.best = c;
    result.evaluated.push_back(std::move(c));
    result.best_curve.push_back(result.best.score);
  }
  return result;
}

AgingEvolution::AgingEvolution(const SearchSpace& space, AccuracyFn accuracy,
                               const LatencyModel& latency,
                               Objective objective, Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      objective_(objective),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(accuracy_ != nullptr, "AgingEvolution: null accuracy");
  if (config_.population < 2 || config_.tournament < 1 ||
      config_.tournament > config_.population ||
      config_.evaluations < config_.population) {
    throw InvalidArgument("AgingEvolution: bad configuration");
  }
}

EvolutionSearch::Candidate AgingEvolution::evaluate(Arch arch) {
  static obs::Counter& evaluated =
      obs::counter("hsconas.aging_evolution.candidates_evaluated");
  evaluated.add();
  EvolutionSearch::Candidate c;
  c.arch = std::move(arch);
  c.accuracy = accuracy_({c.arch}).front();
  c.latency_ms = latency_.predict_ms(c.arch);
  c.score = objective_.score(c.accuracy, c.latency_ms);
  return c;
}

Arch AgingEvolution::mutate(Arch arch) {
  // REA's canonical mutation: change exactly one thing. We flip either one
  // layer's operator or one layer's channel factor — the paper's two
  // exploration axes.
  const int l = static_cast<int>(
      rng_.index(static_cast<std::size_t>(arch.num_layers())));
  if (rng_.bernoulli(0.5)) {
    arch.ops[static_cast<std::size_t>(l)] = rng_.choice(space_.allowed_ops(l));
  } else {
    arch.factors[static_cast<std::size_t>(l)] =
        rng_.choice(space_.allowed_factors(l));
  }
  return arch;
}

AgingEvolution::Result AgingEvolution::run() {
  HSCONAS_TRACE_SCOPE("aging_evolution.run");
  Result result;
  result.best.score = -1e300;
  std::deque<EvolutionSearch::Candidate> population;

  const auto admit = [&](EvolutionSearch::Candidate c) {
    if (c.score > result.best.score) result.best = c;
    result.evaluated.push_back(c);
    result.best_curve.push_back(result.best.score);
    population.push_back(std::move(c));
  };

  for (int i = 0; i < config_.population; ++i) {
    admit(evaluate(Arch::random(space_, rng_)));
  }

  for (int i = config_.population; i < config_.evaluations; ++i) {
    // Tournament: best of `tournament` uniformly sampled members.
    const EvolutionSearch::Candidate* parent = nullptr;
    for (int t = 0; t < config_.tournament; ++t) {
      const auto& contender = population[rng_.index(population.size())];
      if (parent == nullptr || contender.score > parent->score) {
        parent = &contender;
      }
    }
    admit(evaluate(mutate(parent->arch)));
    population.pop_front();  // retire the oldest, never the worst
  }
  return result;
}

}  // namespace hsconas::core
