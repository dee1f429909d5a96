#pragma once

#include <vector>

#include "core/accuracy.h"
#include "core/arch.h"
#include "core/latency_model.h"
#include "core/objective.h"
#include "core/search_space.h"

namespace hsconas::core {

/// Progressive space shrinking (§III-C).
///
/// For a target layer l, every allowed operator k defines a subspace
/// A_sub(l, k) = { arch : opˡ = k }. Its quality (Definition 1) is the mean
/// objective F over N uniform samples. The best operator is then *fixed*
/// for that layer, and evaluation proceeds to the previous layer — back to
/// front, so when layer l is scored, all deeper layers are already fixed,
/// exactly as the paper prescribes ("when evaluating the 19-th layer, we
/// fix the operator of the 20-th layer").
///
/// A layer's samples — op by op, N per op — are drawn serially (one RNG
/// stream, fixed order), scored in one AccuracyFn call and reduced per op
/// in index order, so Q is the same at every pool size.
class SpaceShrinker {
 public:
  struct Config {
    int samples_per_subspace = 100;  ///< N of Definition 1
    std::uint64_t seed = 77;
  };

  /// The space is mutated in place by shrink operations.
  SpaceShrinker(SearchSpace& space, AccuracyFn accuracy,
                const LatencyModel& latency, Objective objective,
                Config config);

  struct LayerDecision {
    int layer = 0;
    int chosen_op = 0;
    std::vector<double> quality;  ///< Q per candidate op (index-aligned)
    int subspaces_evaluated = 0;
  };

  /// Shrink one layer: score the quality Q(A_sub) of every allowed op's
  /// subspace (Def. 1), fix the best.
  LayerDecision shrink_layer(int layer);

  /// Shrink a back-to-front run of `count` layers starting at `from_layer`
  /// (inclusive, descending) — one paper "stage" is (L-1 .. L-4).
  std::vector<LayerDecision> shrink_stage(int from_layer, int count);

  /// Total subspaces evaluated so far (the §III-C complexity argument:
  /// 5 × 4 per stage instead of 5⁴).
  int total_subspaces_evaluated() const { return total_evaluated_; }

  /// Checkpoint/resume: the shrinker's only cross-stage state is its RNG
  /// stream and the evaluation counter (decisions live in the space and
  /// the pipeline result). Restoring makes the next shrink_stage() draw
  /// the exact samples an uninterrupted run would.
  void export_state(util::ByteWriter& out) const;
  void import_state(util::ByteReader& in);

 private:
  SearchSpace& space_;
  AccuracyFn accuracy_;
  const LatencyModel& latency_;
  Objective objective_;
  Config config_;
  util::Rng rng_;
  int total_evaluated_ = 0;
};

}  // namespace hsconas::core
