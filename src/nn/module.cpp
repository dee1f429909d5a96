#include "nn/module.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/fused_conv.h"
#include "obs/metrics.h"

namespace hsconas::nn {

void Module::collect_params(std::vector<Parameter*>& out) { (void)out; }

void set_mode(const ModuleVisitor& visit, Mode mode) {
  visit([mode](Module& m) {
    m.mode_ = mode;
    if (mode != Mode::kTrain) m.release_backward_state();
  });
}

void Module::set_mode(Mode mode) {
  nn::set_mode([this](const std::function<void(Module&)>& fn) { visit(fn); },
               mode);
}

void Module::keep_for_backward(tensor::Tensor& slot,
                               const tensor::Tensor& value) {
  if (!keeps_backward_state()) return;
  slot = value;
  note_backward_state(slot);
}

void note_backward_state(std::size_t bytes) {
  static obs::Counter& stored =
      obs::counter("hsconas.nn.backward_state_bytes");
  stored.add(bytes);
}

long Module::param_count() {
  std::vector<Parameter*> ps;
  collect_params(ps);
  long total = 0;
  for (const Parameter* p : ps) total += p->numel();
  return total;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& x) {
  if (children_.empty()) return x;
  // The first child reads x itself; h holds each later stage's input.
  tensor::Tensor h;
  const bool fuse = mode() == Mode::kEvalFused;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const tensor::Tensor& in = i == 0 ? x : h;
    // Fused-eval peephole: a Conv2d → BatchNorm2d [→ ReLU | HSwish] run
    // collapses into one fused epilogue pass. Only in an eval flavour:
    // the fused path folds the running statistics, not batch statistics.
    if (fuse && i + 1 < children_.size()) {
      auto* conv = dynamic_cast<Conv2d*>(children_[i].get());
      auto* bn = conv != nullptr
                     ? dynamic_cast<BatchNorm2d*>(children_[i + 1].get())
                     : nullptr;
      if (conv != nullptr && bn != nullptr) {
        tensor::EpilogueAct act = tensor::EpilogueAct::kNone;
        std::size_t consumed = 2;
        if (i + 2 < children_.size()) {
          if (dynamic_cast<ReLU*>(children_[i + 2].get()) != nullptr) {
            act = tensor::EpilogueAct::kReLU;
            consumed = 3;
          } else if (dynamic_cast<HSwish*>(children_[i + 2].get()) !=
                     nullptr) {
            act = tensor::EpilogueAct::kHSwish;
            consumed = 3;
          }
        }
        h = fused_conv_bn_act(*conv, *bn, act, in);
        i += consumed - 1;
        continue;
      }
    }
    h = children_[i]->forward(in);
  }
  return h;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& dy) {
  if (children_.empty()) return dy;
  tensor::Tensor g = children_.back()->backward(dy);
  for (auto it = children_.rbegin() + 1; it != children_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::collect_params(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->collect_params(out);
}

void Sequential::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  for (auto& child : children_) child->visit(fn);
}

}  // namespace hsconas::nn
