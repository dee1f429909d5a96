#pragma once

#include <functional>
#include <vector>

#include "core/supernet.h"
#include "data/loader.h"
#include "nn/optimizer.h"

namespace hsconas::core {

/// Training hyper-parameters (§IV-A defaults, scaled-down values are used
/// by tests/benches via the proxy configs).
struct TrainConfig {
  int epochs = 10;
  std::size_t batch_size = 64;
  double lr = 0.5;
  double final_lr = 0.0;
  int warmup_epochs = 0;
  double momentum = 0.9;
  double weight_decay = 3e-5;
  double grad_clip = 5.0;
  double label_smoothing = 0.0;
  std::uint64_t seed = 2024;
  bool verbose = false;

  /// Strict-fair operator sampling (FairNAS-style): instead of one uniform
  /// path per step, every step runs K micro-steps whose per-layer operators
  /// form a random permutation of the K candidates, accumulating gradients
  /// before a single optimizer update — each operator receives exactly one
  /// gradient contribution per step. Channel factors stay uniform-random.
  /// Ignored for standalone (fixed-arch) networks. K× cost per step.
  bool fair_sampling = false;
};

struct EpochStats {
  int epoch = 0;
  double loss = 0.0;
  double top1 = 0.0;       ///< training accuracy
  double lr = 0.0;
};

/// Single-path uniform-sampling trainer for the weight-sharing supernet:
/// each step samples one arch uniformly from the *current* (possibly
/// shrunk) space, so supernet tuning after a shrink stage (§III-C)
/// automatically concentrates on the surviving subspace.
class SupernetTrainer {
 public:
  SupernetTrainer(Supernet& supernet, const data::SyntheticDataset& dataset,
                  TrainConfig config);

  /// Called after each completed epoch with its 0-based index *within this
  /// run* and the epoch's stats — the checkpoint hook: at every call the
  /// trainer (plus the supernet's parameters) is at a clean epoch boundary.
  using EpochCallback = std::function<void(int epoch, const EpochStats&)>;

  /// Run `epochs` epochs with a cosine schedule from `lr` (overrides the
  /// config value when >= 0) down to final_lr. Appends to history().
  std::vector<EpochStats> run(int epochs, double lr = -1.0);

  /// Resumable variant: the cosine schedule always spans the *full*
  /// `epochs` run, but execution starts at `start_epoch` (epochs before it
  /// are assumed already done by the run this trainer was restored from).
  /// Combined with import_state + restored supernet parameters, this
  /// replays the exact remaining steps an uninterrupted run would take.
  std::vector<EpochStats> run(int epochs, double lr, int start_epoch,
                              const EpochCallback& on_epoch);

  /// One optimizer step on one batch with the given arch; exposed so tests
  /// can drive training deterministically.
  double step(const data::Batch& batch, const Arch& arch, double lr);

  /// One strict-fair step: K accumulated micro-steps (see
  /// TrainConfig::fair_sampling), one optimizer update. Returns the mean
  /// micro-step loss and reports the sampled op matrix through `sampled`
  /// when non-null (K rows of L operator indices).
  double step_fair(const data::Batch& batch, double lr,
                   std::vector<Arch>* sampled = nullptr);

  const std::vector<EpochStats>& history() const { return history_; }

  /// Validation top-1 over `eval_batches` batches for each arch,
  /// index-aligned (Supernet::evaluate: the supernet must be in score
  /// mode).
  std::vector<double> evaluate(const std::vector<Arch>& archs,
                               std::size_t eval_batches = 0);

  /// Checkpoint/resume: both RNG streams (path sampling + loader
  /// shuffle/augment), the optimizer's momentum buffers, and the epoch
  /// history. Supernet *parameters* are serialized separately (they belong
  /// to the net, not the trainer).
  void export_state(util::ByteWriter& out) const;
  void import_state(util::ByteReader& in);

 private:
  Supernet& supernet_;
  const data::SyntheticDataset& dataset_;
  TrainConfig config_;
  nn::SGD optimizer_;
  data::DataLoader train_loader_;
  util::Rng arch_rng_;
  std::vector<EpochStats> history_;
};

/// Train a standalone (fixed-arch) network from scratch and report final
/// validation accuracy — the "trained from scratch for fair comparison"
/// protocol of §IV-A. Returns (val_top1, history).
struct FromScratchResult {
  double val_top1 = 0.0;
  std::vector<EpochStats> history;
};
FromScratchResult train_from_scratch(const SearchSpace& space,
                                     const Arch& arch,
                                     const data::SyntheticDataset& dataset,
                                     const TrainConfig& config);

/// Fine-tune `arch` starting from the supernet's shared weights
/// (OFA-style inheritance via Supernet::extract_subnet) instead of a fresh
/// initialization. Typically reaches from-scratch accuracy in a fraction
/// of the epochs — see the weight-inheritance rows of the Fig. 5 bench.
FromScratchResult fine_tune_subnet(Supernet& supernet, const Arch& arch,
                                   const data::SyntheticDataset& dataset,
                                   const TrainConfig& config);

}  // namespace hsconas::core
