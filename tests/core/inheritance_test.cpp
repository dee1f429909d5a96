// Tests for OFA-style weight inheritance (Supernet::extract_subnet +
// fine_tune_subnet).

#include <gtest/gtest.h>

#include "core/supernet.h"
#include "core/trainer.h"
#include "util/error.h"

namespace hsconas::core {
namespace {

SearchSpaceConfig tiny_config() { return SearchSpaceConfig::proxy(4, 8, 1); }

data::SyntheticDataset tiny_dataset() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 4;
  cfg.train_size = 96;
  cfg.val_size = 48;
  cfg.image_size = 8;
  cfg.seed = 55;
  return data::SyntheticDataset(cfg);
}

TEST(WeightInheritance, SubnetReproducesSupernetForward) {
  const SearchSpace space(tiny_config());
  Supernet supernet(space, 3);
  util::Rng rng(1);
  const Arch arch = Arch::random(space, rng);

  auto subnet = supernet.extract_subnet(arch);
  ASSERT_TRUE(subnet->is_standalone());

  // Training-mode forward uses batch statistics, so identical weights give
  // bit-identical outputs.
  util::Rng xrng(2);
  const tensor::Tensor x =
      tensor::Tensor::uniform({2, 3, 8, 8}, -1.0f, 1.0f, xrng);
  supernet.set_mode(nn::Mode::kTrain);
  subnet->set_mode(nn::Mode::kTrain);
  const tensor::Tensor ya = supernet.forward(x, arch);
  const tensor::Tensor yb = subnet->forward(x);
  for (long i = 0; i < ya.numel(); ++i) {
    ASSERT_EQ(ya.flat()[static_cast<std::size_t>(i)],
              yb.flat()[static_cast<std::size_t>(i)]);
  }
}

TEST(WeightInheritance, CopyIsDeepNotAliased) {
  const SearchSpace space(tiny_config());
  Supernet supernet(space, 3);
  util::Rng rng(4);
  const Arch arch = Arch::random(space, rng);
  auto subnet = supernet.extract_subnet(arch);

  // Mutating the subnet must not touch the supernet.
  const auto src = supernet.path_parameters(arch);
  const auto dst = subnet->parameters();
  const float before = src[0]->value.flat()[0];
  dst[0]->value.flat()[0] += 1.0f;
  EXPECT_EQ(src[0]->value.flat()[0], before);
}

TEST(WeightInheritance, RespectsFixedArchContract) {
  const SearchSpace space(tiny_config());
  Supernet supernet(space, 3);
  util::Rng rng(5);
  const Arch arch = Arch::random(space, rng);
  auto subnet = supernet.extract_subnet(arch);
  Arch other = arch;
  other.ops[0] = (other.ops[0] + 1) % 5;
  tensor::Tensor x({1, 3, 8, 8});
  EXPECT_THROW(subnet->forward(x, other), InvalidArgument);
}

TEST(WeightInheritance, FineTuneBeatsScratchAtTinyBudget) {
  const SearchSpace space(tiny_config());
  const auto dataset = tiny_dataset();

  // Train the supernet long enough that its shared weights carry signal.
  Supernet supernet(space, 17);
  TrainConfig sup_cfg;
  sup_cfg.batch_size = 24;
  sup_cfg.lr = 0.08;
  sup_cfg.seed = 6;
  SupernetTrainer trainer(supernet, dataset, sup_cfg);
  trainer.run(8);

  Arch arch;
  arch.ops.assign(static_cast<std::size_t>(space.num_layers()), 0);
  arch.factors.assign(static_cast<std::size_t>(space.num_layers()), 9);

  TrainConfig short_cfg;
  short_cfg.epochs = 2;  // far too short for from-scratch convergence
  short_cfg.batch_size = 24;
  short_cfg.lr = 0.02;
  short_cfg.seed = 7;

  const auto inherited = fine_tune_subnet(supernet, arch, dataset, short_cfg);
  const auto scratch = train_from_scratch(space, arch, dataset, short_cfg);
  EXPECT_GE(inherited.val_top1, scratch.val_top1);
}

}  // namespace
}  // namespace hsconas::core
