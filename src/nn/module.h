#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace hsconas::nn {

struct QuantState;

/// A trainable tensor plus its gradient accumulator.
///
/// Weight sharing in the supernet works by module *identity*: every subnet
/// evaluation routes activations through the same Module objects, so they
/// read and update the same Parameters. Nothing is ever copied out.
struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;
  /// BN affine terms and biases are conventionally excluded from L2 decay.
  bool apply_weight_decay = true;

  Parameter() = default;
  Parameter(std::string n, tensor::Tensor v, bool decay = true)
      : name(std::move(n)),
        value(std::move(v)),
        grad(value.shape()),
        apply_weight_decay(decay) {}

  void zero_grad() { grad.zero(); }
  long numel() const { return value.numel(); }
};

/// Per-module execution mode.
///   kTrain: batch-statistics BatchNorm (running stats updated); modules
///           keep what backward() needs. The only mode backward() accepts.
///   kScore: the same arithmetic as kTrain — batch-statistics BatchNorm,
///           bit-identical outputs — but read-only: running stats are left
///           alone, nothing is kept for backward(), and state left by an
///           earlier kTrain forward is dropped when the mode is set. What
///           scoring search candidates on shared weights needs
///           (Supernet::evaluate): like eval forwards, any number of
///           threads may run score forwards through one module at once.
///           Sequential's conv→BN→act peephole runs here too: each such
///           chain's BN and activation normalize the conv's output in
///           place with its batch statistics (nn/module.cpp), bit for bit
///           what the composed modules compute.
///   kEval:  running-statistics BatchNorm, forward-only like
///           kScore. Conv2d/Linear layers whose QuantState is ready
///           compute in int8, every other layer in fp32. Serving and int8
///           calibration run here.
///   kEvalFused: kEval, plus the same peephole with the running
///           statistics: each chain runs as one fused epilogue pass (the
///           BN fold is in nn/module.cpp; Conv2d::forward_fused applies
///           it).
enum class Mode { kTrain, kScore, kEval, kEvalFused };

/// True for both eval flavours: what every layer but Sequential keys on.
constexpr bool is_eval(Mode mode) {
  return mode == Mode::kEval || mode == Mode::kEvalFused;
}

class Module;

/// A traversal that applies its argument to every module of a network
/// (Module::visit, or core::Supernet::visit for the supernet).
using ModuleVisitor =
    std::function<void(const std::function<void(Module&)>&)>;

/// Put every module `visit` reaches into `mode`, in one traversal. A
/// module put in a non-train mode releases its backward state.
void set_mode(const ModuleVisitor& visit, Mode mode);

/// Base class for all layers and blocks.
///
/// The autograd model is deliberately simple: in train mode, modules cache
/// whatever they need during forward() and consume it in the next
/// backward() call, so a module supports exactly one in-flight train
/// forward/backward pair — which matches how one-shot NAS training uses it
/// (one sampled path per step). set_mode() releases that state when a
/// module leaves train mode, and a score or eval forward writes no member,
/// so any number of threads may run such forwards through one module at
/// once (serving lanes share one network this way, and the search scores
/// candidates on one supernet this way) while nothing changes its mode,
/// weights or quantization state.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Compute the output; in train mode, caches what backward() needs.
  virtual tensor::Tensor forward(const tensor::Tensor& x) = 0;

  /// Propagate the loss gradient; accumulates into Parameter::grad and
  /// returns the gradient w.r.t. the forward input.
  virtual tensor::Tensor backward(const tensor::Tensor& dy) = 0;

  /// Append raw pointers to this module's trainable parameters (and those
  /// of any children). Pointers stay valid for the module's lifetime.
  virtual void collect_params(std::vector<Parameter*>& out);

  /// Set the execution mode of this module and every child (through
  /// visit()), so a whole network switches in one traversal.
  void set_mode(Mode mode);
  Mode mode() const { return mode_; }

  /// Depth-first traversal over this module and all children; used for
  /// cross-cutting operations (mode changes, int8 calibration, diagnostics).
  virtual void visit(const std::function<void(Module&)>& fn) { fn(*this); }

  /// Post-training-quantization state, for modules that have an int8
  /// datapath (Conv2d, Linear). Null for everything else; the calibration
  /// driver and serializers discover quantizable layers through visit() +
  /// this hook, so they need no knowledge of concrete layer types.
  virtual QuantState* quant_state() { return nullptr; }

  virtual std::string name() const = 0;

  /// Total parameter element count (convenience for reports).
  long param_count();

 protected:
  /// True when forward() must keep state for backward(). Outside train
  /// mode a forward leaves the module untouched.
  bool keeps_backward_state() const { return mode_ == Mode::kTrain; }

  /// In train mode, copy `value` into `slot` for backward() (and count
  /// it, see note_backward_state); otherwise do nothing.
  void keep_for_backward(tensor::Tensor& slot, const tensor::Tensor& value);

  /// Drop everything forward() kept for backward(). nn::set_mode calls it
  /// on each module it puts in a non-train mode, so backward() after a
  /// score or eval forward fails its "before forward" check. Leaf modules
  /// with backward state override it.
  virtual void release_backward_state() {}

 private:
  friend void set_mode(const ModuleVisitor& visit, Mode mode);
  Mode mode_ = Mode::kTrain;
};

/// Count `bytes` of state a module just stored for backward() on the
/// `hsconas.nn.backward_state_bytes` counter — which therefore stays flat
/// across score and eval forwards.
void note_backward_state(std::size_t bytes);
inline void note_backward_state(const tensor::Tensor& stored) {
  note_backward_state(static_cast<std::size_t>(stored.numel()) *
                      sizeof(float));
}

/// Chains child modules in order. Owns them.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::string display_name)
      : display_name_(std::move(display_name)) {}

  /// Append a child; returns a raw observer pointer for later access.
  template <typename M>
  M* add(std::unique_ptr<M> child) {
    M* raw = child.get();
    children_.push_back(std::move(child));
    return raw;
  }

  tensor::Tensor forward(const tensor::Tensor& x) override {
    return forward(x, 0);
  }
  /// Forward with every non-depthwise Conv2d child producing its leading
  /// `out_channels` output channels (0: all). Depthwise convs, BNs and
  /// activations run at their input's width, so one call runs a stage of
  /// a width-sliced branch (nn/mask.h).
  tensor::Tensor forward(const tensor::Tensor& x, long out_channels);
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_params(std::vector<Parameter*>& out) override;
  void visit(const std::function<void(Module&)>& fn) override;
  std::string name() const override { return display_name_; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }

 private:
  std::string display_name_ = "sequential";
  std::vector<std::unique_ptr<Module>> children_;
};

/// Pass-through layer; the "skip" operator of the search space.
class Identity : public Module {
 public:
  tensor::Tensor forward(const tensor::Tensor& x) override { return x; }
  tensor::Tensor backward(const tensor::Tensor& dy) override { return dy; }
  std::string name() const override { return "identity"; }
};

}  // namespace hsconas::nn
