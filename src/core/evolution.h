#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "core/arch.h"
#include "core/energy_model.h"
#include "core/latency_model.h"
#include "core/objective.h"
#include "core/accuracy.h"

namespace hsconas::core {

/// Evolutionary architecture search (§III-D, Eq. 5): generational EA over
/// {opˡ, cˡ} genomes with top-k parent selection, uniform crossover and
/// per-layer mutation at both the operator and the channel level. Paper
/// defaults: 20 generations, population 50, 20 parents, pc = pm = 0.25.
///
/// Candidate evaluation is batched per generation: offspring genomes are
/// bred serially (all RNG decisions happen on one thread, in a fixed
/// order) and then scored in one AccuracyFn call, which fans them out
/// across util::ThreadPool::global() into index-ordered slots: the
/// surrogate through score_each, a score-mode supernet through
/// Supernet::evaluate, which writes no module state. Because scoring
/// touches no shared mutable state, every pool size gives the same Result
/// bit for bit for a fixed seed — same best, same per_generation stats.
class EvolutionSearch {
 public:
  struct Config {
    int generations = 20;
    int population = 50;
    int parents = 20;
    double crossover_prob = 0.25;
    double mutation_prob = 0.25;
    /// Per-layer gene resample probability once an arch is selected for
    /// mutation (so mutation changes a couple of layers, not all 20).
    double gene_mutation_prob = 0.1;
    std::uint64_t seed = 99;
  };

  struct Candidate {
    Arch arch;
    double accuracy = 0.0;
    double latency_ms = 0.0;
    double energy_mj = 0.0;  ///< 0 unless an EnergyModel was supplied
    double score = -1e300;   ///< F(arch, T)
  };

  struct GenerationStats {
    int generation = 0;
    double best_score = 0.0;
    double mean_score = 0.0;
    double best_latency_ms = 0.0;  ///< latency of the best candidate
    double best_accuracy = 0.0;
  };

  struct Result {
    Candidate best;
    std::vector<GenerationStats> per_generation;
    /// Every distinct candidate evaluated during the search (for the
    /// Fig. 6 latency histogram).
    std::vector<Candidate> evaluated;
  };

  EvolutionSearch(const SearchSpace& space, AccuracyFn accuracy,
                  const LatencyModel& latency, Objective objective,
                  Config config);

  /// Energy-aware variant (§V extension): candidates are additionally
  /// priced by the energy model and scored with the γ term of Objective.
  EvolutionSearch(const SearchSpace& space, AccuracyFn accuracy,
                  const LatencyModel& latency, const EnergyModel& energy,
                  Objective objective, Config config);

  /// Called after the initial population is scored (generation == -1) and
  /// after every completed generation (0-based index) — the checkpoint
  /// hook: at each call the search's exported state is a consistent
  /// boundary a resumed run can continue from deterministically.
  using GenerationCallback = std::function<void(int generation)>;

  /// Run (or, after import_state, continue) the search to completion.
  /// Bit-identical to an uninterrupted run for a fixed seed regardless of
  /// how many export/import cycles happened at generation boundaries.
  Result run(const GenerationCallback& on_generation = nullptr);

  /// Serialize/restore the full search state: RNG stream, dedup set,
  /// current population, and the result-so-far.
  void export_state(util::ByteWriter& out) const;
  void import_state(util::ByteReader& in);

 private:
  void init_population();
  void step_generation();
  /// Score a bred batch in one accuracy call, preserving index order.
  std::vector<Candidate> evaluate_batch(std::vector<Arch> archs);
  Arch crossover(const Arch& a, const Arch& b);
  Arch mutate(Arch arch);

  const SearchSpace& space_;
  AccuracyFn accuracy_;
  const LatencyModel& latency_;
  const EnergyModel* energy_ = nullptr;  ///< optional, non-owning
  Objective objective_;
  Config config_;
  util::Rng rng_;

  // ---- resumable run state (serialized by export_state) -------------------
  bool initialized_ = false;   ///< initial population bred & scored
  int next_generation_ = 0;    ///< generations completed so far
  std::vector<Candidate> population_;
  std::unordered_set<std::uint64_t> seen_;
  Result result_;
};

}  // namespace hsconas::core
