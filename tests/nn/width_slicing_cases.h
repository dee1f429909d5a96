#pragma once

// Width-slicing equivalence: a choice block run at channel factor c must
// compute, bit for bit, what a block *built* at the active width computes
// with weights copied from the leading slices of the shared full-width
// ones (nn/mask.h). The reference is assembled here from fresh Conv2d /
// BatchNorm2d / ReLU modules at the narrow widths plus the family's own
// glue (channel slice / interleave / projection / residual), so it shares
// no slicing code with the block under test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/choice_block.h"
#include "nn/conv2d.h"
#include "nn/mbconv_block.h"
#include "nn/shuffle.h"
#include "util/rng.h"

namespace hsconas::nn::slicing {

/// One block shape of the property sweep.
struct BlockShape {
  long in, out, stride;
};
inline constexpr BlockShape kShapes[] = {{16, 16, 1}, {8, 16, 2}};
inline constexpr double kFactors[] = {0.1, 0.5, 1.0};
inline constexpr OpFamily kFamilies[] = {OpFamily::kShuffleV2,
                                         OpFamily::kMbConv};

inline bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// A block's Sequential stages in visit order: the searchable branch
/// (every stage but a ".proj") and the shuffle family's projection.
struct Stages {
  std::vector<Sequential*> branch;
  Sequential* proj = nullptr;
};

inline bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

inline Stages stages_of(ChoiceBlock& block) {
  Stages st;
  block.visit([&](Module& m) {
    auto* seq = dynamic_cast<Sequential*>(&m);
    if (seq == nullptr) return;
    if (ends_with(seq->name(), ".proj")) {
      st.proj = seq;
    } else {
      st.branch.push_back(seq);
    }
  });
  return st;
}

/// A copy of `stage` at input width `in`, every non-depthwise conv
/// producing `out` channels (0: its full width), the weights and BN
/// affine terms copied from the leading slices; `pairs` collects
/// (original, copy) module pairs for the gradient checks.
inline std::unique_ptr<Sequential> narrow_copy(
    Sequential& stage, long in, long out,
    std::vector<std::pair<Module*, Module*>>& pairs) {
  util::Rng rng(1);
  auto seq = std::make_unique<Sequential>(stage.name() + ".ref");
  long width = in;
  for (std::size_t i = 0; i < stage.size(); ++i) {
    Module& m = stage.child(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&m)) {
      const bool dw = conv->groups() == conv->in_channels() &&
                      conv->groups() == conv->out_channels();
      const long cout = dw ? width : (out > 0 ? out : conv->out_channels());
      const long groups = dw ? width : conv->groups();
      auto copy = std::make_unique<Conv2d>(width, cout, conv->kernel(),
                                           conv->stride(), conv->pad(), groups,
                                           conv->bias() != nullptr, rng,
                                           conv->name() + ".ref");
      const long row = conv->weight().value.numel() / conv->out_channels();
      const long narrow_row = copy->weight().value.numel() / cout;
      for (long o = 0; o < cout; ++o) {
        std::memcpy(copy->weight().value.data() + o * narrow_row,
                    conv->weight().value.data() + o * row,
                    static_cast<std::size_t>(narrow_row) * sizeof(float));
      }
      pairs.emplace_back(conv, copy.get());
      width = cout;
      seq->add(std::move(copy));
    } else if (auto* bn = dynamic_cast<BatchNorm2d*>(&m)) {
      auto copy = std::make_unique<BatchNorm2d>(width, 0.1, bn->eps(),
                                                bn->name() + ".ref");
      std::memcpy(copy->gamma().value.data(), bn->gamma().value.data(),
                  static_cast<std::size_t>(width) * sizeof(float));
      std::memcpy(copy->beta().value.data(), bn->beta().value.data(),
                  static_cast<std::size_t>(width) * sizeof(float));
      pairs.emplace_back(bn, copy.get());
      seq->add(std::move(copy));
    } else if (dynamic_cast<ReLU*>(&m) != nullptr) {
      seq->add(std::make_unique<ReLU>());
    } else {
      ADD_FAILURE() << "narrow_copy: unexpected module " << m.name();
    }
  }
  return seq;
}

/// The reference: the block's arithmetic rebuilt at `active` mid channels.
class Reference {
 public:
  Reference(ChoiceBlock& block, OpFamily family, int op, const BlockShape& s,
            long active)
      : shape_(s),
        family_(family),
        skip_(family_op_is_skip(family, op)),
        identity_(skip_ && s.stride == 1) {
    if (identity_) return;
    Stages st = stages_of(block);
    const long branch_in =
        family == OpFamily::kShuffleV2 && s.stride == 1 && !skip_ ? s.in / 2
                                                                  : s.in;
    long width = branch_in;
    for (std::size_t i = 0; i < st.branch.size(); ++i) {
      const bool last = i + 1 == st.branch.size();
      branch_.push_back(
          narrow_copy(*st.branch[i], width, last ? 0 : active, pairs));
      width = last ? 0 : active;
    }
    if (st.proj != nullptr) proj_ = narrow_copy(*st.proj, s.in, 0, pairs);
    residual_ = family == OpFamily::kMbConv && !skip_ && s.stride == 1 &&
                s.in == s.out;
  }

  tensor::Tensor forward(const tensor::Tensor& x) {
    if (identity_) return x;
    if (family_ == OpFamily::kMbConv || skip_) {
      tensor::Tensor y = run_branch(x);
      if (residual_) y.add_(x);
      return y;
    }
    if (shape_.stride == 1) {
      const long half = shape_.in / 2;
      return interleave_channels(
          x, run_branch(slice_channels(x, half, half)));
    }
    tensor::Tensor p = proj_->forward(x);
    return interleave_channels(p, run_branch(x));
  }

  tensor::Tensor backward(const tensor::Tensor& dy) {
    if (identity_) return dy;
    if (family_ == OpFamily::kMbConv || skip_) {
      tensor::Tensor dx = back_branch(dy);
      if (residual_) dx.add_(dy);
      return dx;
    }
    tensor::Tensor d_left, d_main;
    deinterleave_channels(dy, d_left, d_main);
    if (shape_.stride == 1) {
      return concat_channels(d_left, back_branch(d_main));
    }
    tensor::Tensor dx = proj_->backward(d_left);
    dx.add_(back_branch(d_main));
    return dx;
  }

  void set_mode(Mode mode) {
    for (auto& s : branch_) s->set_mode(mode);
    if (proj_) proj_->set_mode(mode);
  }

  /// (block module, reference module) pairs: every Conv2d and BatchNorm2d.
  std::vector<std::pair<Module*, Module*>> pairs;

 private:
  tensor::Tensor run_branch(const tensor::Tensor& x) {
    tensor::Tensor h = x;
    for (auto& s : branch_) h = s->forward(h);
    return h;
  }
  tensor::Tensor back_branch(const tensor::Tensor& dy) {
    tensor::Tensor g = dy;
    for (auto it = branch_.rbegin(); it != branch_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  BlockShape shape_;
  OpFamily family_;
  bool skip_, identity_, residual_ = false;
  std::vector<std::unique_ptr<Sequential>> branch_;
  std::unique_ptr<Sequential> proj_;
};

/// A fresh block with non-trivial BN affine terms (gamma in [0.5, 1.5],
/// beta in [-0.5, 0.5]), so a leaked inactive channel would show.
inline std::unique_ptr<ChoiceBlock> make_block(OpFamily family, int op,
                                               const BlockShape& s,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  auto block = make_family_block(family, op, s.in, s.out, s.stride, rng,
                                 "blk");
  block->visit([&](Module& m) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&m)) {
      for (float& g : bn->gamma().value.flat()) {
        g = static_cast<float>(rng.uniform(0.5, 1.5));
      }
      for (float& b : bn->beta().value.flat()) {
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
    }
  });
  return block;
}

/// The leading window of a block parameter that corresponds to `ref`
/// (same rank; each dimension cut to ref's extent) must equal ref's grad,
/// and every element outside it must be exactly +0.
inline void expect_window_grads(const Parameter& full, const Parameter& ref,
                                const std::string& what) {
  const auto& fs = full.grad.shape();
  const auto& rs = ref.grad.shape();
  ASSERT_EQ(fs.size(), rs.size()) << what;
  const long inner = fs.size() == 4 ? fs[2] * fs[3] : 1;
  const long cols = fs.size() >= 2 ? fs[1] : 1;
  const long ref_cols = rs.size() >= 2 ? rs[1] : 1;
  for (long o = 0; o < fs[0]; ++o) {
    for (long i = 0; i < cols; ++i) {
      for (long t = 0; t < inner; ++t) {
        const float g = full.grad.data()[(o * cols + i) * inner + t];
        if (o < rs[0] && i < ref_cols) {
          const float want =
              ref.grad.data()[(o * ref_cols + i) * inner + t];
          ASSERT_EQ(0, std::memcmp(&g, &want, sizeof(float)))
              << what << " grad at (" << o << ", " << i << ", " << t << ")";
        } else {
          std::uint32_t bits;
          std::memcpy(&bits, &g, sizeof(bits));
          ASSERT_EQ(0u, bits) << what << " inactive grad at (" << o << ", "
                              << i << ", " << t << ")";
        }
      }
    }
  }
}

}  // namespace hsconas::nn::slicing
