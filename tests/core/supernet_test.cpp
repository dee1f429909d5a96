#include "core/supernet.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "util/error.h"

namespace hsconas::core {
namespace {

SearchSpaceConfig tiny_config() {
  auto cfg = SearchSpaceConfig::proxy(4, 8, 1);  // 3 layers, 8x8 images
  return cfg;
}

data::SyntheticDataset tiny_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.train_size = 64;
  cfg.val_size = 32;
  cfg.image_size = 8;
  cfg.seed = 33;
  return data::SyntheticDataset(cfg);
}

Arch uniform_arch(const SearchSpace& space, int op, int factor) {
  Arch arch;
  arch.ops.assign(static_cast<std::size_t>(space.num_layers()), op);
  arch.factors.assign(static_cast<std::size_t>(space.num_layers()), factor);
  return arch;
}

TEST(Supernet, ForwardShapeForAnyArch) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 1);
  util::Rng rng(2);
  tensor::Tensor x({2, 3, 8, 8});
  for (int i = 0; i < 5; ++i) {
    const Arch arch = Arch::random(space, rng);
    const tensor::Tensor logits = net.forward(x, arch);
    EXPECT_EQ(logits.shape(), (std::vector<long>{2, 4}));
    EXPECT_TRUE(logits.all_finite());
  }
}

TEST(Supernet, WeightSharingByIdentity) {
  // Two archs that agree on layer 0 must read/write the same parameters:
  // training one must change the other's output.
  const SearchSpace space(tiny_config());
  Supernet net(space, 3);
  const Arch a = uniform_arch(space, 0, 9);
  Arch b = a;
  b.ops[1] = 1;  // differ elsewhere

  tensor::Tensor x({1, 3, 8, 8});
  x.fill(0.3f);
  net.set_mode(nn::Mode::kEval);

  // Evaluate b, then perturb a's layer-0 parameters via a training step on
  // a; b's output must change because layer 0 is shared.
  const tensor::Tensor before = net.forward(x, b);
  std::vector<nn::Parameter*> params = net.path_parameters(a);
  for (nn::Parameter* p : params) {
    if (p->name.find("layer0") != std::string::npos) {
      p->value.mul_(1.5f);
    }
  }
  const tensor::Tensor after = net.forward(x, b);
  double diff = 0.0;
  for (long i = 0; i < before.numel(); ++i) {
    diff += std::abs(before.flat()[static_cast<std::size_t>(i)] -
                     after.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(Supernet, ParameterCountCoversAllChoices) {
  const SearchSpace space(tiny_config());
  Supernet full(space, 1);
  Supernet standalone(space, 1, uniform_arch(space, 0, 9));
  // The full supernet holds K operator copies per layer, so strictly more
  // parameters than any standalone subnet.
  EXPECT_GT(full.param_count(), standalone.param_count());
  EXPECT_GT(full.parameters().size(), standalone.parameters().size());
}

TEST(Supernet, PathParametersSubset) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 1);
  util::Rng rng(5);
  const Arch arch = Arch::random(space, rng);
  const auto path = net.path_parameters(arch);
  const auto all = net.parameters();
  EXPECT_LT(path.size(), all.size());
  for (nn::Parameter* p : path) {
    EXPECT_NE(std::find(all.begin(), all.end(), p), all.end());
  }
}

TEST(Supernet, StandaloneRejectsOtherArchs) {
  const SearchSpace space(tiny_config());
  const Arch fixed = uniform_arch(space, 1, 5);
  Supernet net(space, 2, fixed);
  EXPECT_TRUE(net.is_standalone());
  Arch other = fixed;
  other.ops[0] = 2;
  tensor::Tensor x({1, 3, 8, 8});
  EXPECT_THROW(net.forward(x, other), InvalidArgument);
  EXPECT_NO_THROW(net.forward(x));
}

TEST(Supernet, FullSupernetHasNoFixedArch) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 1);
  EXPECT_FALSE(net.is_standalone());
  EXPECT_THROW(net.fixed_arch(), InternalError);
}

TEST(Supernet, BackwardBeforeForwardThrows) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 1);
  tensor::Tensor g({2, 4});
  EXPECT_THROW(net.backward(g), InternalError);
}

TEST(Supernet, EvaluateReturnsFraction) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 1);
  const auto dataset = tiny_dataset();
  util::Rng rng(6);
  net.set_mode(nn::Mode::kScore);
  const double acc =
      net.evaluate(dataset, Arch::random(space, rng), 16);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(SupernetTrainer, LossDecreasesOnTinyTask) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 11);
  const auto dataset = tiny_dataset();
  TrainConfig cfg;
  cfg.batch_size = 16;
  cfg.lr = 0.05;
  cfg.seed = 4;
  SupernetTrainer trainer(net, dataset, cfg);
  const auto history = trainer.run(6);
  ASSERT_EQ(history.size(), 6u);
  EXPECT_LT(history.back().loss, history.front().loss);
  EXPECT_TRUE(std::isfinite(history.back().loss));
}

TEST(SupernetTrainer, HistoryAccumulatesAcrossRuns) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 11);
  const auto dataset = tiny_dataset();
  TrainConfig cfg;
  cfg.batch_size = 16;
  cfg.lr = 0.05;
  SupernetTrainer trainer(net, dataset, cfg);
  trainer.run(2);
  trainer.run(3, 0.01);
  EXPECT_EQ(trainer.history().size(), 5u);
  EXPECT_EQ(trainer.history().back().epoch, 4);
}

TEST(TrainFromScratch, StandaloneLearnsAboveChance) {
  const SearchSpace space(tiny_config());
  const Arch arch = uniform_arch(space, 0, 9);
  const auto dataset = tiny_dataset();
  TrainConfig cfg;
  cfg.epochs = 12;
  cfg.batch_size = 16;
  cfg.lr = 0.08;
  cfg.seed = 9;
  const auto result = train_from_scratch(space, arch, dataset, cfg);
  // 4 classes -> chance is 0.25; the tiny net must clearly beat it.
  EXPECT_GT(result.val_top1, 0.45);
  EXPECT_EQ(result.history.size(), 12u);
}

TEST(Supernet, MaskedEvaluationDiffersByChannelFactor) {
  const SearchSpace space(tiny_config());
  Supernet net(space, 13);
  tensor::Tensor x({1, 3, 8, 8});
  x.fill(0.4f);
  net.set_mode(nn::Mode::kEval);
  const Arch wide = uniform_arch(space, 0, 9);
  const Arch thin = uniform_arch(space, 0, 0);
  const tensor::Tensor yw = net.forward(x, wide);
  const tensor::Tensor yt = net.forward(x, thin);
  double diff = 0.0;
  for (long i = 0; i < yw.numel(); ++i) {
    diff += std::abs(yw.flat()[static_cast<std::size_t>(i)] -
                     yt.flat()[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(Supernet, BackwardAfterEvaluateThrows) {
  // Scoring is forward-only: entering score mode drops the state an
  // earlier train forward left, and evaluate() keeps none, so a backward()
  // that follows fails instead of reading stale caches. evaluate() refuses
  // to run in train mode, where its forwards would write module state,
  // and leaves the mode as it found it.
  const SearchSpace space(tiny_config());
  const data::SyntheticDataset dataset = tiny_dataset();
  Supernet net(space, 17);
  const Arch arch = uniform_arch(space, 0, 9);
  tensor::Tensor x({2, 3, 8, 8});
  x.fill(0.2f);
  const tensor::Tensor logits = net.forward(x, arch);
  EXPECT_THROW(net.evaluate(dataset, arch, 16, 1), Error);
  net.set_mode(nn::Mode::kScore);
  net.evaluate(dataset, arch, 16, 1);
  EXPECT_EQ(nn::Mode::kScore, net.mode());
  EXPECT_THROW(net.backward(logits), InternalError);
}

TEST(Supernet, BackwardAfterStandaloneEvalForwardThrows) {
  // An eval forward records no path and keeps no layer state, so the
  // train forward before it cannot be backpropagated through afterwards.
  const SearchSpace space(tiny_config());
  Supernet net(space, 19, uniform_arch(space, 1, 5));
  tensor::Tensor x({2, 3, 8, 8});
  x.fill(0.3f);
  const tensor::Tensor logits = net.forward(x);
  net.backward(logits);
  net.forward(x);
  net.set_mode(nn::Mode::kEval);
  net.forward(x);
  EXPECT_THROW(net.backward(logits), InternalError);
}

}  // namespace
}  // namespace hsconas::core
