#include "core/pareto.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "util/error.h"
#include "util/stats.h"

namespace hsconas::core {

ParetoSearch::ParetoSearch(const SearchSpace& space, AccuracyFn accuracy,
                           const LatencyModel& latency, Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(accuracy_ != nullptr, "ParetoSearch: null accuracy");
  if (config_.population < 4 || config_.generations < 1) {
    throw InvalidArgument("ParetoSearch: bad configuration");
  }
}

bool ParetoSearch::dominates(const Candidate& a, const Candidate& b) {
  const bool no_worse =
      a.accuracy >= b.accuracy && a.latency_ms <= b.latency_ms;
  const bool strictly_better =
      a.accuracy > b.accuracy || a.latency_ms < b.latency_ms;
  return no_worse && strictly_better;
}

std::vector<std::size_t> ParetoSearch::non_dominated(
    const std::vector<Candidate>& candidates) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j) {
      if (j != i && dominates(candidates[j], candidates[i])) {
        dominated = true;
      }
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::vector<std::vector<std::size_t>> ParetoSearch::sort_fronts(
    const std::vector<Candidate>& pop) const {
  // Classic fast non-dominated sort.
  const std::size_t n = pop.size();
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::vector<std::size_t>> fronts(1);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (dominates(pop[i], pop[j])) {
        dominated_by[i].push_back(j);
      } else if (dominates(pop[j], pop[i])) {
        ++domination_count[i];
      }
    }
    if (domination_count[i] == 0) fronts[0].push_back(i);
  }

  std::size_t current = 0;
  while (current < fronts.size() && !fronts[current].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : fronts[current]) {
      for (std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    if (!next.empty()) fronts.push_back(std::move(next));
    ++current;
  }
  return fronts;
}

std::vector<double> ParetoSearch::crowding(
    const std::vector<Candidate>& pop,
    const std::vector<std::size_t>& front) const {
  std::vector<double> distance(pop.size(), 0.0);
  if (front.size() <= 2) {
    for (std::size_t i : front) {
      distance[i] = std::numeric_limits<double>::infinity();
    }
    return distance;
  }
  const auto accumulate_axis = [&](auto value_of) {
    std::vector<std::size_t> order = front;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return value_of(pop[a]) < value_of(pop[b]);
              });
    const double span =
        value_of(pop[order.back()]) - value_of(pop[order.front()]);
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (span <= 0.0) return;
    for (std::size_t k = 1; k + 1 < order.size(); ++k) {
      distance[order[k]] += (value_of(pop[order[k + 1]]) -
                             value_of(pop[order[k - 1]])) /
                            span;
    }
  };
  accumulate_axis([](const Candidate& c) { return c.accuracy; });
  accumulate_axis([](const Candidate& c) { return c.latency_ms; });
  return distance;
}

ParetoSearch::Candidate ParetoSearch::evaluate(Arch arch) {
  Candidate c;
  c.arch = std::move(arch);
  c.accuracy = accuracy_({c.arch}).front();
  c.latency_ms = latency_.predict_ms(c.arch);
  c.score = c.accuracy;  // informational only
  return c;
}

ParetoSearch::Result ParetoSearch::run() {
  Result result;
  std::unordered_set<std::uint64_t> seen;

  std::vector<Candidate> population;
  while (static_cast<int>(population.size()) < config_.population) {
    Arch arch = Arch::random(space_, rng_);
    if (!seen.insert(arch.hash()).second) continue;
    population.push_back(evaluate(std::move(arch)));
  }

  // Reference latency for the convergence diagnostic.
  std::vector<double> initial_latencies;
  for (const Candidate& c : population) {
    initial_latencies.push_back(c.latency_ms);
  }
  const double median_latency = util::percentile(initial_latencies, 50.0);

  for (int gen = 0; gen < config_.generations; ++gen) {
    // Offspring: binary tournament on (front rank implicit via dominance,
    // fall back to crowding-free random pick), then variation.
    std::vector<Candidate> offspring;
    int guard = 0;
    while (static_cast<int>(offspring.size()) < config_.population &&
           guard < config_.population * 50) {
      ++guard;
      const Candidate& p1 = population[rng_.index(population.size())];
      const Candidate& p2 = population[rng_.index(population.size())];
      const Candidate& winner = dominates(p2, p1) ? p2 : p1;
      Arch child = winner.arch;
      if (rng_.bernoulli(config_.crossover_prob)) {
        const Candidate& other = population[rng_.index(population.size())];
        for (int l = 0; l < child.num_layers(); ++l) {
          if (rng_.bernoulli(0.5)) {
            child.ops[static_cast<std::size_t>(l)] =
                other.arch.ops[static_cast<std::size_t>(l)];
            child.factors[static_cast<std::size_t>(l)] =
                other.arch.factors[static_cast<std::size_t>(l)];
          }
        }
        // Quant gene crossover — gated so quantization-free runs keep
        // their classic RNG stream.
        if (space_.config().search_quantization && rng_.bernoulli(0.5)) {
          child.quant = other.arch.quant;
        }
      }
      bool mutated = false;
      if (rng_.bernoulli(config_.mutation_prob)) {
        for (int l = 0; l < child.num_layers(); ++l) {
          if (rng_.bernoulli(config_.gene_mutation_prob)) {
            child.ops[static_cast<std::size_t>(l)] =
                rng_.choice(space_.allowed_ops(l));
            mutated = true;
          }
          if (rng_.bernoulli(config_.gene_mutation_prob)) {
            child.factors[static_cast<std::size_t>(l)] =
                rng_.choice(space_.allowed_factors(l));
            mutated = true;
          }
        }
        if (space_.config().search_quantization &&
            rng_.bernoulli(config_.gene_mutation_prob)) {
          child.quant ^= 1;
          mutated = true;
        }
      }
      if (!mutated && seen.count(child.hash()) > 0) {
        // duplicate of an evaluated arch and unmutated: nudge one gene
        const int l = static_cast<int>(
            rng_.index(static_cast<std::size_t>(child.num_layers())));
        child.factors[static_cast<std::size_t>(l)] =
            rng_.choice(space_.allowed_factors(l));
      }
      if (!seen.insert(child.hash()).second) continue;
      offspring.push_back(evaluate(std::move(child)));
    }

    // Environmental selection: NSGA-II elitist truncation.
    std::vector<Candidate> merged = population;
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    const auto fronts = sort_fronts(merged);

    std::vector<Candidate> next;
    for (const auto& front : fronts) {
      if (static_cast<int>(next.size() + front.size()) <=
          config_.population) {
        for (std::size_t i : front) next.push_back(merged[i]);
      } else {
        const auto distance = crowding(merged, front);
        std::vector<std::size_t> order = front;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    return distance[a] > distance[b];
                  });
        for (std::size_t i : order) {
          if (static_cast<int>(next.size()) >= config_.population) break;
          next.push_back(merged[i]);
        }
        break;
      }
    }
    population = std::move(next);

    const auto nd = non_dominated(population);
    result.front_size_history.push_back(static_cast<int>(nd.size()));
    double best_acc = 0.0;
    for (const Candidate& c : population) {
      if (c.latency_ms <= median_latency) {
        best_acc = std::max(best_acc, c.accuracy);
      }
    }
    result.best_acc_below_median.push_back(best_acc);
  }

  const auto nd = non_dominated(population);
  for (std::size_t i : nd) result.front.push_back(population[i]);
  std::sort(result.front.begin(), result.front.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.latency_ms < b.latency_ms;
            });
  return result;
}

}  // namespace hsconas::core
