#include "nn/mask.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hsconas::nn {

using tensor::Tensor;

Sequential& SlicedBranch::add_stage(std::string display_name) {
  stages_.push_back(std::make_unique<Sequential>(std::move(display_name)));
  return *stages_.back();
}

Tensor SlicedBranch::forward(const Tensor& x, long active) {
  const std::size_t last = stages_.size() - 1;
  Tensor h = stages_.at(0)->forward(x, last == 0 ? 0 : active);
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    h = stages_[i]->forward(h, i == last ? 0 : active);
  }
  return h;
}

Tensor SlicedBranch::backward(const Tensor& dy) {
  Tensor g = stages_.back()->backward(dy);
  for (std::size_t i = stages_.size() - 1; i-- > 0;) {
    g = stages_[i]->backward(g);
  }
  return g;
}

void SlicedBranch::collect_params(std::vector<Parameter*>& out) {
  for (auto& stage : stages_) stage->collect_params(out);
}

void SlicedBranch::visit(const std::function<void(Module&)>& fn) {
  for (auto& stage : stages_) stage->visit(fn);
}

long scaled_channels(long max_channels, double factor) {
  const long rounded = static_cast<long>(std::llround(
      static_cast<double>(max_channels) * factor));
  return std::clamp<long>(rounded, 1, max_channels);
}

}  // namespace hsconas::nn
