#include "core/trainer.h"

#include "obs/metrics.h"
#include "obs/timing.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/serial.h"
#include "util/string_util.h"

namespace {
hsconas::obs::Counter& step_counter() {
  static hsconas::obs::Counter& c =
      hsconas::obs::counter("hsconas.train.steps");
  return c;
}
hsconas::obs::Histogram& step_histogram() {
  static hsconas::obs::Histogram& h =
      hsconas::obs::histogram("hsconas.train.step_ms");
  return h;
}
}  // namespace

namespace hsconas::core {

SupernetTrainer::SupernetTrainer(Supernet& supernet,
                                 const data::SyntheticDataset& dataset,
                                 TrainConfig config)
    : supernet_(supernet),
      dataset_(dataset),
      config_(config),
      optimizer_(supernet.parameters(),
                 nn::SGD::Config{config.lr, config.momentum,
                                 config.weight_decay, config.grad_clip}),
      train_loader_(dataset, config.batch_size, /*train=*/true,
                    config.seed ^ 0x10adull),
      arch_rng_(config.seed ^ 0xa5c4ull) {}

double SupernetTrainer::step(const data::Batch& batch, const Arch& arch,
                             double lr) {
  const std::uint64_t t0 = obs::monotonic_ns();
  step_counter().add();
  supernet_.set_mode(nn::Mode::kTrain);
  optimizer_.set_lr(lr);
  optimizer_.zero_grad();
  const tensor::Tensor logits = supernet_.forward(batch.images, arch);
  const nn::LossResult res =
      nn::cross_entropy(logits, batch.labels, config_.label_smoothing);
  supernet_.backward(res.grad);
  optimizer_.step();
  step_histogram().record(
      static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
  return res.loss;
}

double SupernetTrainer::step_fair(const data::Batch& batch, double lr,
                                  std::vector<Arch>* sampled) {
  const std::uint64_t t0 = obs::monotonic_ns();
  step_counter().add();
  HSCONAS_CHECK_MSG(!supernet_.is_standalone(),
                    "step_fair: standalone networks have a single path");
  const SearchSpace& space = supernet_.space();
  const int L = space.num_layers();
  const int K = space.config().num_ops;

  // One operator permutation per layer, drawn from the layer's *allowed*
  // list (shrunk layers simply repeat their surviving op).
  std::vector<std::vector<int>> perms(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    std::vector<int> perm;
    const auto& allowed = space.allowed_ops(l);
    // Cycle the allowed list up to K entries after shuffling.
    std::vector<int> pool = allowed;
    arch_rng_.shuffle(pool);
    for (int k = 0; k < K; ++k) {
      perm.push_back(pool[static_cast<std::size_t>(k) % pool.size()]);
    }
    perms[static_cast<std::size_t>(l)] = std::move(perm);
  }

  supernet_.set_mode(nn::Mode::kTrain);
  optimizer_.set_lr(lr);
  optimizer_.zero_grad();
  double loss_sum = 0.0;
  for (int k = 0; k < K; ++k) {
    Arch arch;
    arch.ops.reserve(static_cast<std::size_t>(L));
    arch.factors.reserve(static_cast<std::size_t>(L));
    for (int l = 0; l < L; ++l) {
      arch.ops.push_back(perms[static_cast<std::size_t>(l)]
                              [static_cast<std::size_t>(k)]);
      arch.factors.push_back(arch_rng_.choice(space.allowed_factors(l)));
    }
    if (sampled != nullptr) sampled->push_back(arch);
    const tensor::Tensor logits = supernet_.forward(batch.images, arch);
    const nn::LossResult res =
        nn::cross_entropy(logits, batch.labels, config_.label_smoothing);
    supernet_.backward(res.grad);  // accumulates into shared grads
    loss_sum += res.loss;
  }
  optimizer_.step();
  step_histogram().record(
      static_cast<double>(obs::monotonic_ns() - t0) / 1e6);
  return loss_sum / static_cast<double>(K);
}

std::vector<EpochStats> SupernetTrainer::run(int epochs, double lr) {
  return run(epochs, lr, /*start_epoch=*/0, /*on_epoch=*/nullptr);
}

std::vector<EpochStats> SupernetTrainer::run(int epochs, double lr,
                                             int start_epoch,
                                             const EpochCallback& on_epoch) {
  HSCONAS_TRACE_SCOPE("train.run");
  HSCONAS_CHECK_MSG(start_epoch >= 0 && start_epoch <= epochs,
                    "SupernetTrainer::run: start_epoch out of range");
  const double base_lr = lr >= 0.0 ? lr : config_.lr;
  const long steps_per_epoch =
      static_cast<long>(train_loader_.num_batches());
  // The schedule spans the full run: a resume at start_epoch > 0 lands on
  // the same point of the cosine curve the uninterrupted run would be at.
  const nn::CosineSchedule schedule(
      base_lr, static_cast<long>(epochs) * steps_per_epoch,
      static_cast<long>(config_.warmup_epochs) * steps_per_epoch,
      config_.final_lr);

  std::vector<EpochStats> stats;
  long step_index = static_cast<long>(start_epoch) * steps_per_epoch;
  for (int e = start_epoch; e < epochs; ++e) {
    HSCONAS_TRACE_SCOPE("train.epoch");
    train_loader_.start_epoch();
    double loss_sum = 0.0;
    std::size_t correct = 0, total = 0;
    for (std::size_t b = 0; b < train_loader_.num_batches(); ++b) {
      data::Batch batch = train_loader_.batch(b);
      const double cur_lr = schedule.lr_at(step_index++);
      if (config_.fair_sampling && !supernet_.is_standalone()) {
        const double loss = step_fair(batch, cur_lr);
        loss_sum += loss * static_cast<double>(batch.labels.size());
        // Training accuracy under fair sampling: use the last micro-step's
        // statistics via a cheap re-evaluation pass? Not worth K more
        // forwards — report loss-only epochs (top1 stays 0 here).
        total += batch.labels.size();
        continue;
      }
      // Single-path uniform sampling from the current (shrunk) space.
      const Arch arch = supernet_.is_standalone()
                            ? supernet_.fixed_arch()
                            : Arch::random(supernet_.space(), arch_rng_);
      const std::uint64_t step_t0 = obs::monotonic_ns();
      step_counter().add();
      supernet_.set_mode(nn::Mode::kTrain);
      optimizer_.set_lr(cur_lr);
      optimizer_.zero_grad();
      const tensor::Tensor logits = supernet_.forward(batch.images, arch);
      const nn::LossResult res =
          nn::cross_entropy(logits, batch.labels, config_.label_smoothing);
      supernet_.backward(res.grad);
      optimizer_.step();
      step_histogram().record(
          static_cast<double>(obs::monotonic_ns() - step_t0) / 1e6);

      loss_sum += res.loss * static_cast<double>(batch.labels.size());
      correct += res.correct_top1;
      total += batch.labels.size();
    }
    EpochStats ep;
    ep.epoch = static_cast<int>(history_.size());
    ep.loss = loss_sum / static_cast<double>(total);
    ep.top1 = static_cast<double>(correct) / static_cast<double>(total);
    ep.lr = schedule.lr_at(std::max<long>(0, step_index - 1));
    history_.push_back(ep);
    stats.push_back(ep);
    if (config_.verbose) {
      HSCONAS_LOG_INFO << "epoch " << ep.epoch << " loss "
                       << util::format("%.4f", ep.loss) << " top1 "
                       << util::format("%.3f", ep.top1) << " lr "
                       << util::format("%.4f", ep.lr);
    }
    if (on_epoch) on_epoch(e, ep);
  }
  return stats;
}

void SupernetTrainer::export_state(util::ByteWriter& out) const {
  out.rng_state(arch_rng_.state());
  train_loader_.export_state(out);
  optimizer_.export_state(out);
  out.u64(history_.size());
  for (const EpochStats& ep : history_) {
    out.i32(ep.epoch);
    out.f64(ep.loss);
    out.f64(ep.top1);
    out.f64(ep.lr);
  }
}

void SupernetTrainer::import_state(util::ByteReader& in) {
  arch_rng_.set_state(in.rng_state());
  train_loader_.import_state(in);
  optimizer_.import_state(in);
  const std::size_t n = static_cast<std::size_t>(in.u64());
  history_.clear();
  history_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EpochStats ep;
    ep.epoch = in.i32();
    ep.loss = in.f64();
    ep.top1 = in.f64();
    ep.lr = in.f64();
    history_.push_back(ep);
  }
}

std::vector<double> SupernetTrainer::evaluate(const std::vector<Arch>& archs,
                                              std::size_t eval_batches) {
  return supernet_.evaluate(dataset_, archs, config_.batch_size,
                            eval_batches);
}

FromScratchResult train_from_scratch(const SearchSpace& space,
                                     const Arch& arch,
                                     const data::SyntheticDataset& dataset,
                                     const TrainConfig& config) {
  Supernet net(space, config.seed ^ 0x5c7a7cull, arch);
  SupernetTrainer trainer(net, dataset, config);
  FromScratchResult result;
  result.history = trainer.run(config.epochs);
  net.set_mode(nn::Mode::kScore);
  result.val_top1 = net.evaluate(dataset, arch, config.batch_size);
  return result;
}

FromScratchResult fine_tune_subnet(Supernet& supernet, const Arch& arch,
                                   const data::SyntheticDataset& dataset,
                                   const TrainConfig& config) {
  std::unique_ptr<Supernet> subnet =
      supernet.extract_subnet(arch, config.seed ^ 0xf17eull);
  SupernetTrainer trainer(*subnet, dataset, config);
  FromScratchResult result;
  result.history = trainer.run(config.epochs);
  subnet->set_mode(nn::Mode::kScore);
  result.val_top1 = subnet->evaluate(dataset, arch, config.batch_size);
  return result;
}

}  // namespace hsconas::core
