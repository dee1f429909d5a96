#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/arch.h"
#include "core/search_space.h"
#include "data/loader.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/choice_block.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/pooling.h"

namespace hsconas::core {

/// The weight-sharing supernet N (§II-A): a fixed stem and head, plus K
/// candidate ShuffleChoiceBlocks per searchable layer, all resident in
/// memory at their maximum width Sˡ. Evaluating a candidate arch routes the
/// activations through one block per layer, each run at the arch's channel
/// factor on the leading window of the block's full-width weights — weights
/// are shared by construction, never copied or masked.
///
/// Passing a fixed Arch instantiates only that arch's operator per layer —
/// a standalone network for training a discovered architecture from
/// scratch with the identical substrate.
class Supernet {
 public:
  Supernet(const SearchSpace& space, std::uint64_t seed,
           std::optional<Arch> fixed_arch = std::nullopt);

  const SearchSpace& space() const { return space_; }
  bool is_standalone() const { return fixed_arch_.has_value(); }
  const Arch& fixed_arch() const;

  /// Forward the batch through the path selected by `arch` (must equal the
  /// fixed arch for standalone networks), each block at the arch's channel
  /// factor. Returns logits (N, classes). A train forward records the
  /// path for backward(); a score or eval forward writes nothing, so any
  /// number of threads may run one concurrently, each with its own arch.
  tensor::Tensor forward(const tensor::Tensor& images, const Arch& arch);

  /// Forward for standalone networks.
  tensor::Tensor forward(const tensor::Tensor& images);

  /// Backward pass through the exact path of the last train forward.
  void backward(const tensor::Tensor& logits_grad);

  /// All trainable parameters (every candidate block's, for the supernet).
  std::vector<nn::Parameter*> parameters();

  /// Parameters on the given arch's path only.
  std::vector<nn::Parameter*> path_parameters(const Arch& arch);

  /// Put every module into `mode` (see nn::Mode), in one traversal; a
  /// non-train mode also drops the recorded backward path.
  void set_mode(nn::Mode mode);
  nn::Mode mode() const { return stem_->mode(); }

  /// Post-training int8 calibration of a *standalone* network: stream
  /// `batches` through the fixed arch in fp32 with the quant observers
  /// armed, then freeze per-layer activation/weight quantizers
  /// (nn::calibrate_with protocol). The batches run in the network's own
  /// eval flavour — the one it will serve in, since kEval and kEvalFused
  /// observe slightly different activations. Afterwards eval-mode
  /// forwards of every frozen layer run the int8 GEMM. Returns the number
  /// of layers frozen; throws Error outside an eval mode and on a
  /// supernet (shared blocks would calibrate one path's observers against
  /// another path's traffic).
  std::size_t calibrate_quant(const std::vector<tensor::Tensor>& batches);

  /// Top-1 accuracy of each arch in `archs` (index-aligned) on (a prefix
  /// of) the validation split. Requires score mode, set once per scoring
  /// phase by the caller, and throws Error in any other mode:
  /// batch-statistics BN (standard one-shot practice: candidate paths never
  /// saw calibrated running stats) with the same logits as a train-mode
  /// forward, but no module written — running stats, backward state and
  /// mode all stay as they are. So any number of threads may evaluate
  /// candidates on one supernet at once. max_batches == 0 means the full
  /// split.
  ///
  /// A score forward is deterministic, so archs that share a gene prefix
  /// compute identical activations up to their first differing gene. Per
  /// evaluation batch the stem runs once, layer 0 runs once per distinct
  /// (op, factor) gene across the pool, and every arch's remaining layers,
  /// head and classifier then run across the pool reading the shared
  /// layer-0 output. Each arch gets the bits a forward() of its own gives;
  /// nothing is kept past the call.
  std::vector<double> evaluate(const data::SyntheticDataset& dataset,
                               const std::vector<Arch>& archs,
                               std::size_t batch_size,
                               std::size_t max_batches = 0);

  /// One arch: evaluate(dataset, {arch}, ...)'s only entry.
  double evaluate(const data::SyntheticDataset& dataset, const Arch& arch,
                  std::size_t batch_size, std::size_t max_batches = 0);

  /// Apply `fn` to every module in the network (see nn::Module::visit).
  void visit(const std::function<void(nn::Module&)>& fn);

  /// Extract a standalone network for `arch` with weights *copied* from
  /// this supernet's shared blocks (OFA-style weight inheritance): the
  /// returned network starts from the one-shot-trained weights instead of
  /// a fresh init, so a short fine-tune replaces full from-scratch
  /// training. The supernet is left untouched.
  std::unique_ptr<Supernet> extract_subnet(const Arch& arch,
                                           std::uint64_t seed = 0);

  long param_count();

 private:
  void check_arch(const Arch& arch) const;
  nn::ChoiceBlock& block(int layer, int op);
  /// Layer `layer` of `arch`'s path at the arch's channel factor.
  tensor::Tensor run_layer(int layer, const Arch& arch,
                           const tensor::Tensor& x);
  /// Layers `first_layer`..L-1, head, GAP and classifier of `arch`'s
  /// path on `x`; a train forward records each module for backward().
  tensor::Tensor forward_from(int first_layer, const Arch& arch,
                              const tensor::Tensor& x);

  const SearchSpace& space_;
  std::optional<Arch> fixed_arch_;

  std::unique_ptr<nn::Sequential> stem_;
  // layers_[l][k]; standalone networks hold exactly one entry per layer.
  std::vector<std::vector<std::unique_ptr<nn::ChoiceBlock>>> layers_;
  std::unique_ptr<nn::Sequential> head_conv_;
  nn::GlobalAvgPool gap_;
  std::unique_ptr<nn::Linear> classifier_;

  std::vector<nn::Module*> active_path_;  // last train forward's path
};

}  // namespace hsconas::core
