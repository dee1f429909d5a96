#include "nn/mask.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "nn/op_profile.h"

namespace hsconas::nn {

using tensor::Tensor;

Tensor mask_channels(Tensor x, long active, const char* op) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info(op, "eltwise", x, 1.0);
  });
  if (x.ndim() != 4) {
    throw InvalidArgument("mask_channels: bad input shape " + x.shape_str());
  }
  const long channels = x.dim(1);
  if (active < 1 || active > channels) {
    throw InvalidArgument("mask_channels: active out of [1, channels]");
  }
  const long n = x.dim(0), spatial = x.dim(2) * x.dim(3);
  for (long s = 0; active < channels && s < n; ++s) {
    float* tail = x.data() + ((s * channels + active) * spatial);
    std::memset(tail, 0,
                static_cast<std::size_t>((channels - active) * spatial) *
                    sizeof(float));
  }
  return x;
}

Sequential& MaskedBranch::add_stage(std::string display_name) {
  stages_.push_back(std::make_unique<Sequential>(std::move(display_name)));
  return *stages_.back();
}

Tensor MaskedBranch::forward(const Tensor& x, long active) {
  Tensor h = stages_.at(0)->forward(x);
  for (std::size_t i = 1; i < stages_.size(); ++i) {
    h = stages_[i]->forward(mask_channels(std::move(h), active));
  }
  return h;
}

Tensor MaskedBranch::backward(const Tensor& dy, long active) {
  Tensor g = stages_.back()->backward(dy);
  for (std::size_t i = stages_.size() - 1; i-- > 0;) {
    g = stages_[i]->backward(
        mask_channels(std::move(g), active, "channel_mask.bwd"));
  }
  return g;
}

void MaskedBranch::collect_params(std::vector<Parameter*>& out) {
  for (auto& stage : stages_) stage->collect_params(out);
}

void MaskedBranch::visit(const std::function<void(Module&)>& fn) {
  for (auto& stage : stages_) stage->visit(fn);
}

long scaled_channels(long max_channels, double factor) {
  const long rounded = static_cast<long>(std::llround(
      static_cast<double>(max_channels) * factor));
  return std::clamp<long>(rounded, 1, max_channels);
}

}  // namespace hsconas::nn
