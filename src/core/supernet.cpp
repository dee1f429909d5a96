#include "core/supernet.h"

#include "nn/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hsconas::core {

using nn::BlockKind;
using tensor::Tensor;

Supernet::Supernet(const SearchSpace& space, std::uint64_t seed,
                   std::optional<Arch> fixed_arch)
    : space_(space), fixed_arch_(std::move(fixed_arch)) {
  if (fixed_arch_) fixed_arch_->validate(space_);
  util::Rng rng(seed);
  const SearchSpaceConfig& cfg = space_.config();

  stem_ = std::make_unique<nn::Sequential>("stem");
  stem_->add(std::make_unique<nn::Conv2d>(cfg.input_channels,
                                          cfg.stem_channels, 3,
                                          cfg.stem_stride2 ? 2 : 1, 1, 1,
                                          false, rng, "stem.conv"));
  stem_->add(std::make_unique<nn::BatchNorm2d>(cfg.stem_channels, 0.1, 1e-5,
                                               "stem.bn"));
  stem_->add(std::make_unique<nn::ReLU>());

  layers_.resize(static_cast<std::size_t>(space_.num_layers()));
  for (int l = 0; l < space_.num_layers(); ++l) {
    const LayerInfo& info = space_.layer(l);
    auto& choices = layers_[static_cast<std::size_t>(l)];
    if (fixed_arch_) {
      const int op = fixed_arch_->ops[static_cast<std::size_t>(l)];
      choices.push_back(nn::make_family_block(
          cfg.family, op, info.in_channels, info.out_channels, info.stride,
          rng, util::format("layer%d.op%d", l, op)));
    } else {
      for (int op = 0; op < cfg.num_ops; ++op) {
        choices.push_back(nn::make_family_block(
            cfg.family, op, info.in_channels, info.out_channels, info.stride,
            rng, util::format("layer%d.op%d", l, op)));
      }
    }
  }

  head_conv_ = std::make_unique<nn::Sequential>("head");
  head_conv_->add(std::make_unique<nn::Conv2d>(
      cfg.stage_channels.back(), cfg.head_channels, 1, 1, 0, 1, false, rng,
      "head.conv"));
  head_conv_->add(std::make_unique<nn::BatchNorm2d>(cfg.head_channels, 0.1,
                                                    1e-5, "head.bn"));
  head_conv_->add(std::make_unique<nn::ReLU>());

  classifier_ = std::make_unique<nn::Linear>(cfg.head_channels,
                                             cfg.num_classes, rng, "fc");
}

const Arch& Supernet::fixed_arch() const {
  HSCONAS_CHECK_MSG(fixed_arch_.has_value(),
                    "fixed_arch() on a full supernet");
  return *fixed_arch_;
}

void Supernet::check_arch(const Arch& arch) const {
  arch.validate(space_);
  if (fixed_arch_ && !(arch == *fixed_arch_)) {
    throw InvalidArgument(
        "Supernet: standalone network can only run its fixed arch");
  }
}

nn::ChoiceBlock& Supernet::block(int layer, int op) {
  auto& choices = layers_.at(static_cast<std::size_t>(layer));
  if (fixed_arch_) {
    HSCONAS_CHECK_MSG(op == fixed_arch_->ops[static_cast<std::size_t>(layer)],
                      "Supernet::block: op not instantiated");
    return *choices.front();
  }
  return *choices.at(static_cast<std::size_t>(op));
}

Tensor Supernet::run_layer(int layer, const Arch& arch, const Tensor& x) {
  const auto i = static_cast<std::size_t>(layer);
  return block(layer, arch.ops[i])
      .forward(x, space_.config().channel_factors.at(
                      static_cast<std::size_t>(arch.factors[i])));
}

Tensor Supernet::forward_from(int first_layer, const Arch& arch,
                              const Tensor& x) {
  // Only a train forward records the path backward() walks.
  const bool record = mode() == nn::Mode::kTrain;
  auto run = [&](nn::Module& m, const Tensor& in) {
    if (record) active_path_.push_back(&m);
    return m.forward(in);
  };
  Tensor h;
  const Tensor* in = &x;
  for (int l = first_layer; l < space_.num_layers(); ++l) {
    if (record) {
      active_path_.push_back(
          &block(l, arch.ops[static_cast<std::size_t>(l)]));
    }
    h = run_layer(l, arch, *in);
    in = &h;
  }
  h = run(*head_conv_, *in);
  h = run(gap_, h);
  return run(*classifier_, h);
}

Tensor Supernet::forward(const Tensor& images, const Arch& arch) {
  HSCONAS_TRACE_SCOPE("supernet.forward");
  static obs::Counter& forwards = obs::counter("hsconas.supernet.forwards");
  forwards.add();
  check_arch(arch);
  if (mode() == nn::Mode::kTrain) {
    active_path_.clear();
    active_path_.push_back(stem_.get());
  }
  return forward_from(0, arch, stem_->forward(images));
}

Tensor Supernet::forward(const Tensor& images) {
  HSCONAS_CHECK_MSG(fixed_arch_.has_value(),
                    "forward(images) requires a standalone network");
  return forward(images, *fixed_arch_);
}

void Supernet::backward(const Tensor& logits_grad) {
  HSCONAS_TRACE_SCOPE("supernet.backward");
  static obs::Counter& backwards = obs::counter("hsconas.supernet.backwards");
  backwards.add();
  HSCONAS_CHECK_MSG(!active_path_.empty(),
                    "Supernet::backward before forward");
  Tensor g = logits_grad;
  for (auto it = active_path_.rbegin(); it != active_path_.rend(); ++it) {
    g = (*it)->backward(g);
  }
}

std::vector<nn::Parameter*> Supernet::parameters() {
  std::vector<nn::Parameter*> params;
  stem_->collect_params(params);
  for (auto& choices : layers_) {
    for (auto& blk : choices) blk->collect_params(params);
  }
  head_conv_->collect_params(params);
  classifier_->collect_params(params);
  return params;
}

std::vector<nn::Parameter*> Supernet::path_parameters(const Arch& arch) {
  check_arch(arch);
  std::vector<nn::Parameter*> params;
  stem_->collect_params(params);
  for (int l = 0; l < space_.num_layers(); ++l) {
    block(l, arch.ops[static_cast<std::size_t>(l)]).collect_params(params);
  }
  head_conv_->collect_params(params);
  classifier_->collect_params(params);
  return params;
}

void Supernet::set_mode(nn::Mode mode) {
  nn::set_mode(
      [this](const std::function<void(nn::Module&)>& fn) { visit(fn); },
      mode);
  if (mode != nn::Mode::kTrain) active_path_.clear();
}

std::vector<double> Supernet::evaluate(const data::SyntheticDataset& dataset,
                                       const std::vector<Arch>& archs,
                                       std::size_t batch_size,
                                       std::size_t max_batches) {
  for (const Arch& arch : archs) check_arch(arch);
  if (mode() != nn::Mode::kScore) {
    throw Error("Supernet::evaluate: needs score mode (kScore), set once "
                "per scoring phase; other modes write state or change BN");
  }
  if (archs.empty()) return {};
  static obs::Counter& forwards = obs::counter("hsconas.supernet.forwards");
  static obs::Counter& reuses =
      obs::counter("hsconas.supernet.prefix_reuses");

  // Group the archs by layer-0 gene (op, factor), in order of first
  // appearance; `leaders` holds each group's first arch. The dtype gene
  // takes no part: an fp32 supernet scores both dtypes alike.
  std::vector<std::size_t> leaders;
  std::vector<std::size_t> group_of(archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    std::size_t g = 0;
    while (g < leaders.size() &&
           (archs[leaders[g]].ops[0] != archs[i].ops[0] ||
            archs[leaders[g]].factors[0] != archs[i].factors[0])) {
      ++g;
    }
    if (g == leaders.size()) leaders.push_back(i);
    group_of[i] = g;
  }

  data::DataLoader loader(dataset, batch_size, /*train=*/false, /*seed=*/0);
  const std::size_t batches =
      max_batches == 0 ? loader.num_batches()
                       : std::min(max_batches, loader.num_batches());
  util::ThreadPool& pool = util::ThreadPool::global();
  std::vector<std::size_t> correct(archs.size(), 0);
  std::size_t total = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const data::Batch batch = loader.batch(b);
    const Tensor stem = stem_->forward(batch.images);
    std::vector<Tensor> layer0(leaders.size());
    pool.parallel_for(leaders.size(), [&](std::size_t g) {
      layer0[g] = run_layer(0, archs[leaders[g]], stem);
    });
    // Each arch writes only its own slot.
    pool.parallel_for(archs.size(), [&](std::size_t i) {
      const Tensor logits = forward_from(1, archs[i], layer0[group_of[i]]);
      correct[i] += nn::cross_entropy(logits, batch.labels).correct_top1;
    });
    total += batch.labels.size();
    forwards.add(archs.size());
    // Every arch but one read the shared stem output, and every arch but
    // its group's first read a shared layer-0 output.
    reuses.add(2 * archs.size() - 1 - leaders.size());
  }
  std::vector<double> top1(archs.size(), 0.0);
  if (total == 0) return top1;
  for (std::size_t i = 0; i < archs.size(); ++i) {
    top1[i] = static_cast<double>(correct[i]) / static_cast<double>(total);
  }
  return top1;
}

double Supernet::evaluate(const data::SyntheticDataset& dataset,
                          const Arch& arch, std::size_t batch_size,
                          std::size_t max_batches) {
  return evaluate(dataset, std::vector<Arch>{arch}, batch_size, max_batches)
      .front();
}

void Supernet::visit(const std::function<void(nn::Module&)>& fn) {
  stem_->visit(fn);
  for (auto& choices : layers_) {
    for (auto& blk : choices) blk->visit(fn);
  }
  head_conv_->visit(fn);
  gap_.visit(fn);
  classifier_->visit(fn);
}

std::size_t Supernet::calibrate_quant(
    const std::vector<tensor::Tensor>& batches) {
  if (!is_standalone()) {
    throw Error("Supernet::calibrate_quant: int8 calibration needs a "
                "standalone (fixed-arch) network");
  }
  if (!nn::is_eval(mode())) {
    throw Error("Supernet::calibrate_quant: put the network in the eval "
                "mode it will serve in (kEval or kEvalFused) first");
  }
  return nn::calibrate_with(
      [this](const std::function<void(nn::Module&)>& fn) { visit(fn); },
      [this](const tensor::Tensor& batch) { forward(batch); }, batches);
}

std::unique_ptr<Supernet> Supernet::extract_subnet(const Arch& arch,
                                                   std::uint64_t seed) {
  check_arch(arch);
  auto subnet = std::make_unique<Supernet>(space_, seed, arch);
  // path_parameters(arch) and the standalone's parameters() enumerate the
  // same module sequence (stem, chosen block per layer, head, classifier),
  // so a positional copy is exact. Shapes are asserted anyway.
  const std::vector<nn::Parameter*> source = path_parameters(arch);
  const std::vector<nn::Parameter*> target = subnet->parameters();
  HSCONAS_CHECK_MSG(source.size() == target.size(),
                    "extract_subnet: parameter count mismatch");
  for (std::size_t i = 0; i < source.size(); ++i) {
    HSCONAS_CHECK_MSG(
        source[i]->value.shape() == target[i]->value.shape(),
        "extract_subnet: shape mismatch at " + source[i]->name);
    target[i]->value = source[i]->value;
  }
  return subnet;
}

long Supernet::param_count() {
  long total = 0;
  for (nn::Parameter* p : parameters()) total += p->numel();
  return total;
}

}  // namespace hsconas::core
