#include "nn/module.h"

#include <cmath>
#include <string>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/op_profile.h"
#include "obs/metrics.h"
#include "tensor/batch_norm.h"
#include "tensor/workspace.h"
#include "util/error.h"

namespace hsconas::nn {

namespace {

/// The channels a Conv2d → BatchNorm2d chain runs at: the conv's output
/// width on `x`, of which the BN normalizes as many of its leading
/// channels. Throws when the conv produces more channels than the BN has.
long chain_width(Conv2d& conv, BatchNorm2d& bn, const tensor::Tensor& x,
                 long out_channels) {
  const long c = conv.widths(x, out_channels).cout;
  if (c > bn.channels()) {
    throw InvalidArgument("conv->bn chain: conv output channels " +
                          std::to_string(c) + " > bn channels " +
                          std::to_string(bn.channels()));
  }
  return c;
}

/// y = act(bn(conv(x))) in one pass, with eval-mode (running-statistic)
/// BN, the conv producing `out_channels` channels (0: all) and the BN
/// normalizing that many: folds the conv bias and the BN's leading
/// entries into a per-channel affine
///   scale[c] = gamma[c] / sqrt(running_var[c] + eps)
///   shift[c] = beta[c] + scale[c] * (bias[c] - running_mean[c])
/// that Conv2d::forward_fused applies, with the activation, in its output
/// writeback. In the gamma == 1, running_mean == 0, bias-free case the
/// fold is arithmetically identical to the composed modules; otherwise it
/// differs only by float rounding of the refactored affine.
tensor::Tensor fused_conv_bn_act(Conv2d& conv, BatchNorm2d& bn,
                                 tensor::EpilogueAct act,
                                 const tensor::Tensor& x, long out_channels) {
  static obs::Counter& calls = obs::counter("hsconas.nn.fused_conv_calls");
  const long c = chain_width(conv, bn, x, out_channels);
  calls.add();

  tensor::Scratch fold =
      tensor::Workspace::tls().take(static_cast<std::size_t>(2 * c));
  float* scale = fold.data();
  float* shift = fold.data() + c;
  const float* gamma = bn.gamma().value.data();
  const float* beta = bn.beta().value.data();
  const float* mean = bn.running_mean().data();
  const float* var = bn.running_var().data();
  const Parameter* bias = conv.bias();
  for (long i = 0; i < c; ++i) {
    // Same double-precision inv_std as BatchNorm2d's eval forward, so the
    // gamma==1 / mean==0 / bias-free fold is bit-identical to composing
    // the modules.
    const float inv_std = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(var[i]) + bn.eps()));
    const float s = gamma[i] * inv_std;
    const float b0 = bias != nullptr ? bias->value.data()[i] : 0.0f;
    scale[i] = s;
    shift[i] = beta[i] + s * (b0 - mean[i]);
  }
  return conv.forward_fused(x, scale, shift, act, out_channels);
}

/// y = act(bn(conv(x))) with batch-statistics BN, as in score mode: the
/// conv runs its own forward (bias included), then the BN and the
/// activation run as one in-place pass over its output, bit-identical to
/// the composed modules — no BN or activation tensor and no activation
/// pass. Like any score forward it writes no member (the running
/// statistics stay as they are). The pass is profiled under BN's `bn`
/// key, so the activation's time lands in that row.
tensor::Tensor score_conv_bn_act(Conv2d& conv, BatchNorm2d& bn,
                                 tensor::EpilogueAct act,
                                 const tensor::Tensor& x, long out_channels) {
  static obs::Counter& calls = obs::counter("hsconas.nn.score_conv_bn_calls");
  (void)chain_width(conv, bn, x, out_channels);
  calls.add();
  tensor::Tensor y = conv.forward(x, out_channels);
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("bn", "eltwise", y, 4.0, 12.0);
  });
  tensor::batch_norm_act_inplace(y.data(), y.dim(0), y.dim(1),
                                 y.dim(2) * y.dim(3), bn.gamma().value.data(),
                                 bn.beta().value.data(), bn.eps(), act);
  return y;
}

}  // namespace

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

tensor::Tensor Sequential::forward(const tensor::Tensor& x,
                                   long out_channels) {
  if (children_.empty()) return x;
  // The first child reads x itself; h holds each later stage's input.
  tensor::Tensor h;
  // Conv2d → BatchNorm2d [→ ReLU | HSwish] peephole: in kEvalFused the
  // running statistics fold into the conv's epilogue; in kScore the batch
  // statistics normalize the conv's output in place. kTrain and kEval run
  // the composed modules.
  const bool peephole = mode() == Mode::kEvalFused || mode() == Mode::kScore;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const tensor::Tensor& in = i == 0 ? x : h;
    if (peephole && i + 1 < children_.size()) {
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
        h = mode() == Mode::kScore
                ? score_conv_bn_act(*conv, *bn, act, in, out_channels)
                : fused_conv_bn_act(*conv, *bn, act, in, out_channels);
        i += consumed - 1;
        continue;
      }
    }
    auto* conv = out_channels > 0 ? dynamic_cast<Conv2d*>(children_[i].get())
                                  : nullptr;
    h = conv != nullptr ? conv->forward(in, out_channels)
                        : children_[i]->forward(in);
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
