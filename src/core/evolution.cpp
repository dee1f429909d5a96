#include "core/evolution.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/serial.h"
#include "util/stats.h"

namespace hsconas::core {

EvolutionSearch::EvolutionSearch(const SearchSpace& space,
                                 AccuracyFn accuracy,
                                 const LatencyModel& latency,
                                 Objective objective, Config config)
    : space_(space),
      accuracy_(std::move(accuracy)),
      latency_(latency),
      objective_(objective),
      config_(config),
      rng_(config.seed) {
  HSCONAS_CHECK_MSG(accuracy_ != nullptr, "EvolutionSearch: null accuracy");
  if (config_.population < 2 || config_.parents < 1 ||
      config_.parents > config_.population || config_.generations < 1) {
    throw InvalidArgument("EvolutionSearch: bad population configuration");
  }
}

EvolutionSearch::EvolutionSearch(const SearchSpace& space,
                                 AccuracyFn accuracy,
                                 const LatencyModel& latency,
                                 const EnergyModel& energy,
                                 Objective objective, Config config)
    : EvolutionSearch(space, std::move(accuracy), latency, objective,
                      config) {
  if (!objective.energy_aware()) {
    throw InvalidArgument(
        "EvolutionSearch: energy model supplied but Objective has no "
        "energy term (set gamma < 0 and energy_budget_mj > 0)");
  }
  energy_ = &energy;
}

std::vector<EvolutionSearch::Candidate> EvolutionSearch::evaluate_batch(
    std::vector<Arch> archs) {
  HSCONAS_TRACE_SCOPE("evolution.score", archs.size());
  static obs::Counter& evaluated =
      obs::counter("hsconas.evolution.candidates_evaluated");
  evaluated.add(archs.size());
  const std::vector<double> accuracy = accuracy_(archs);
  HSCONAS_CHECK_MSG(accuracy.size() == archs.size(),
                    "EvolutionSearch: accuracy fn returned a wrong count");
  std::vector<Candidate> out(archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    Candidate& c = out[i];
    c.arch = std::move(archs[i]);
    c.accuracy = accuracy[i];
    c.latency_ms = latency_.predict_ms(c.arch);
    if (energy_ != nullptr) {
      c.energy_mj = energy_->predict_mj(c.arch);
      c.score = objective_.score(c.accuracy, c.latency_ms, c.energy_mj);
    } else {
      c.score = objective_.score(c.accuracy, c.latency_ms);
    }
  }
  return out;
}

Arch EvolutionSearch::crossover(const Arch& a, const Arch& b) {
  // Uniform crossover at layer granularity: each layer inherits its whole
  // (op, factor) gene from one parent, which keeps op/width combinations
  // that trained well together.
  Arch child = a;
  for (int l = 0; l < child.num_layers(); ++l) {
    if (rng_.bernoulli(0.5)) {
      child.ops[static_cast<std::size_t>(l)] =
          b.ops[static_cast<std::size_t>(l)];
      child.factors[static_cast<std::size_t>(l)] =
          b.factors[static_cast<std::size_t>(l)];
    }
  }
  // The quant gene crosses over like any other — but only in a
  // quantization-aware space, so classic runs draw the classic RNG stream.
  if (space_.config().search_quantization && rng_.bernoulli(0.5)) {
    child.quant = b.quant;
  }
  return child;
}

Arch EvolutionSearch::mutate(Arch arch) {
  // Resample a few layers' genes — operator level and channel level
  // independently, so the EA explores both axes (§III-D).
  bool changed = false;
  for (int l = 0; l < arch.num_layers(); ++l) {
    if (rng_.bernoulli(config_.gene_mutation_prob)) {
      arch.ops[static_cast<std::size_t>(l)] =
          rng_.choice(space_.allowed_ops(l));
      changed = true;
    }
    if (rng_.bernoulli(config_.gene_mutation_prob)) {
      arch.factors[static_cast<std::size_t>(l)] =
          rng_.choice(space_.allowed_factors(l));
      changed = true;
    }
  }
  if (space_.config().search_quantization &&
      rng_.bernoulli(config_.gene_mutation_prob)) {
    arch.quant ^= 1;
    changed = true;
  }
  if (!changed) {
    // Guarantee progress: force one gene.
    const int l = static_cast<int>(rng_.index(
        static_cast<std::size_t>(arch.num_layers())));
    arch.ops[static_cast<std::size_t>(l)] =
        rng_.choice(space_.allowed_ops(l));
  }
  return arch;
}

void EvolutionSearch::init_population() {
  // Breed-then-score: every generation's genomes are produced serially
  // (so the RNG stream is independent of the evaluation schedule), then
  // scored as one concurrent batch.
  std::vector<Arch> initial;
  initial.reserve(static_cast<std::size_t>(config_.population));
  while (static_cast<int>(initial.size()) < config_.population) {
    Arch arch = Arch::random(space_, rng_);
    if (!seen_.insert(arch.hash()).second) continue;
    initial.push_back(std::move(arch));
  }
  population_ = evaluate_batch(std::move(initial));
  result_.evaluated.insert(result_.evaluated.end(), population_.begin(),
                           population_.end());
  result_.best = population_.front();
  initialized_ = true;
}

void EvolutionSearch::step_generation() {
  HSCONAS_TRACE_SCOPE("evolution.generation");
  const int gen = next_generation_;
  std::sort(population_.begin(), population_.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  if (population_.front().score > result_.best.score) {
    result_.best = population_.front();
  }

  std::vector<double> scores;
  scores.reserve(population_.size());
  for (const Candidate& c : population_) scores.push_back(c.score);
  GenerationStats stats;
  stats.generation = gen;
  stats.best_score = population_.front().score;
  stats.mean_score = util::mean(scores);
  stats.best_latency_ms = population_.front().latency_ms;
  stats.best_accuracy = population_.front().accuracy;
  result_.per_generation.push_back(stats);

  // Live search telemetry: last generation wins (these are per-process
  // gauges; the trajectory lives in result.per_generation).
  obs::gauge("hsconas.evolution.generation").set(gen);
  obs::gauge("hsconas.evolution.best_score").set(stats.best_score);
  obs::gauge("hsconas.evolution.best_latency_ms")
      .set(stats.best_latency_ms);

  // Top-k parents breed the next generation. Elites survive unchanged.
  const std::vector<Candidate> parents(
      population_.begin(), population_.begin() + config_.parents);
  std::vector<Candidate> next;
  next.reserve(population_.size());
  const int elites = std::max(1, config_.parents / 10);
  for (int e = 0; e < elites; ++e) next.push_back(parents[static_cast<std::size_t>(e)]);

  int stagnation_guard = 0;
  std::vector<Arch> offspring;
  // Duplicates accepted when the space saturates are still scored (the
  // population must reach its size) but are not recorded in
  // result.evaluated, which lists distinct candidates only.
  std::vector<bool> record;
  offspring.reserve(static_cast<std::size_t>(config_.population));
  while (static_cast<int>(next.size() + offspring.size()) <
         config_.population) {
    const Candidate& p1 =
        parents[rng_.index(parents.size())];
    Arch child = p1.arch;
    if (rng_.bernoulli(config_.crossover_prob)) {
      const Candidate& p2 = parents[rng_.index(parents.size())];
      child = crossover(p1.arch, p2.arch);
    }
    if (rng_.bernoulli(config_.mutation_prob)) {
      child = mutate(std::move(child));
    }
    if (!seen_.insert(child.hash()).second) {
      // Duplicate: force a mutation rather than re-evaluating; bail to a
      // fresh random arch if the space is tiny or nearly exhausted.
      if (++stagnation_guard > 20) {
        child = Arch::random(space_, rng_);
        if (!seen_.insert(child.hash()).second) {
          // Space saturated — accept re-evaluating a duplicate.
          offspring.push_back(std::move(child));
          record.push_back(false);
          stagnation_guard = 0;
          continue;
        }
      } else {
        child = mutate(std::move(child));
        if (!seen_.insert(child.hash()).second) continue;
      }
    }
    stagnation_guard = 0;
    offspring.push_back(std::move(child));
    record.push_back(true);
  }
  std::vector<Candidate> scored = evaluate_batch(std::move(offspring));
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (record[i]) result_.evaluated.push_back(scored[i]);
    next.push_back(std::move(scored[i]));
  }
  population_ = std::move(next);
  ++next_generation_;
}

EvolutionSearch::Result EvolutionSearch::run(
    const GenerationCallback& on_generation) {
  HSCONAS_TRACE_SCOPE("evolution.run");
  if (!initialized_) {
    init_population();
    if (on_generation) on_generation(-1);
  }
  while (next_generation_ < config_.generations) {
    step_generation();
    if (on_generation) on_generation(next_generation_ - 1);
  }
  // Final bookkeeping over the last generation — on a copy, so run() stays
  // idempotent: a resumed search that lands here directly (all generations
  // already completed before the interruption) returns the same Result.
  Result result = result_;
  for (const Candidate& c : population_) {
    if (c.score > result.best.score) result.best = c;
  }
  return result;
}

namespace {

void write_candidate(util::ByteWriter& out,
                     const EvolutionSearch::Candidate& c) {
  out.vec_i32(c.arch.ops);
  out.vec_i32(c.arch.factors);
  out.i32(c.arch.quant);
  out.f64(c.accuracy);
  out.f64(c.latency_ms);
  out.f64(c.energy_mj);
  out.f64(c.score);
}

EvolutionSearch::Candidate read_candidate(util::ByteReader& in,
                                          const SearchSpace& space) {
  EvolutionSearch::Candidate c;
  const std::size_t L = static_cast<std::size_t>(space.num_layers());
  c.arch.ops = in.vec_i32(L);
  c.arch.factors = in.vec_i32(L);
  c.arch.quant = in.i32();
  c.accuracy = in.f64();
  c.latency_ms = in.f64();
  c.energy_mj = in.f64();
  c.score = in.f64();
  c.arch.validate(space);
  return c;
}

}  // namespace

void EvolutionSearch::export_state(util::ByteWriter& out) const {
  out.rng_state(rng_.state());
  out.u8(initialized_ ? 1 : 0);
  out.i32(next_generation_);

  // seen_ sorted for a byte-stable file; set iteration order never affects
  // the search itself (only membership queries do).
  std::vector<std::uint64_t> seen(seen_.begin(), seen_.end());
  std::sort(seen.begin(), seen.end());
  out.vec_u64(seen);

  out.u64(population_.size());
  for (const Candidate& c : population_) write_candidate(out, c);

  // result_.best only exists once the initial population is scored; before
  // that it is a default Candidate whose empty genome would fail
  // validation, so it is simply omitted.
  if (initialized_) write_candidate(out, result_.best);
  out.u64(result_.per_generation.size());
  for (const GenerationStats& s : result_.per_generation) {
    out.i32(s.generation);
    out.f64(s.best_score);
    out.f64(s.mean_score);
    out.f64(s.best_latency_ms);
    out.f64(s.best_accuracy);
  }
  out.u64(result_.evaluated.size());
  for (const Candidate& c : result_.evaluated) write_candidate(out, c);
}

void EvolutionSearch::import_state(util::ByteReader& in) {
  rng_.set_state(in.rng_state());
  initialized_ = in.u8() != 0;
  next_generation_ = in.i32();
  if (next_generation_ < 0 || next_generation_ > config_.generations) {
    throw Error("EvolutionSearch: checkpointed generation " +
                std::to_string(next_generation_) + " out of range [0, " +
                std::to_string(config_.generations) + "]");
  }

  const std::vector<std::uint64_t> seen = in.vec_u64();
  seen_.clear();
  seen_.insert(seen.begin(), seen.end());

  const std::size_t pop_n = static_cast<std::size_t>(in.u64());
  if (initialized_ &&
      pop_n != static_cast<std::size_t>(config_.population)) {
    throw Error("EvolutionSearch: checkpointed population of " +
                std::to_string(pop_n) + ", config wants " +
                std::to_string(config_.population));
  }
  population_.clear();
  population_.reserve(pop_n);
  for (std::size_t i = 0; i < pop_n; ++i) {
    population_.push_back(read_candidate(in, space_));
  }

  result_ = Result{};
  if (initialized_) result_.best = read_candidate(in, space_);
  const std::size_t gen_n = static_cast<std::size_t>(in.u64());
  result_.per_generation.reserve(gen_n);
  for (std::size_t i = 0; i < gen_n; ++i) {
    GenerationStats s;
    s.generation = in.i32();
    s.best_score = in.f64();
    s.mean_score = in.f64();
    s.best_latency_ms = in.f64();
    s.best_accuracy = in.f64();
    result_.per_generation.push_back(s);
  }
  const std::size_t eval_n = static_cast<std::size_t>(in.u64());
  result_.evaluated.reserve(eval_n);
  for (std::size_t i = 0; i < eval_n; ++i) {
    result_.evaluated.push_back(read_candidate(in, space_));
  }
}

}  // namespace hsconas::core
