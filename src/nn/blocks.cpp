#include "nn/blocks.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/shuffle.h"

namespace hsconas::nn {

using tensor::Tensor;

const char* block_kind_name(BlockKind kind) {
  switch (kind) {
    case BlockKind::kShuffleK3: return "shuffle_k3";
    case BlockKind::kShuffleK5: return "shuffle_k5";
    case BlockKind::kShuffleK7: return "shuffle_k7";
    case BlockKind::kXception: return "xception";
    case BlockKind::kSkip: return "skip";
  }
  return "?";
}

long block_kernel(BlockKind kind) {
  switch (kind) {
    case BlockKind::kShuffleK5: return 5;
    case BlockKind::kShuffleK7: return 7;
    default: return 3;
  }
}

namespace {

struct BranchBuilder {
  Sequential* seq;  // the stage being filled
  util::Rng& rng;
  const std::string& prefix;
  int idx = 0;

  std::string tag(const char* what) {
    return prefix + "." + what + std::to_string(idx++);
  }

  void pw(long in, long out, bool relu) {
    seq->add(std::make_unique<Conv2d>(in, out, 1, 1, 0, 1, false, rng,
                                      tag("pw")));
    seq->add(std::make_unique<BatchNorm2d>(out, 0.1, 1e-5, tag("bn")));
    if (relu) seq->add(std::make_unique<ReLU>());
  }

  void dw(long channels, long kernel, long stride) {
    seq->add(std::make_unique<Conv2d>(channels, channels, kernel, stride,
                                      kernel / 2, channels, false, rng,
                                      tag("dw")));
    seq->add(std::make_unique<BatchNorm2d>(channels, 0.1, 1e-5, tag("bn")));
  }
};

}  // namespace

ShuffleChoiceBlock::ShuffleChoiceBlock(BlockKind kind, long in_channels,
                                       long out_channels, long stride,
                                       util::Rng& rng,
                                       std::string display_name)
    : kind_(kind),
      in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      mid_channels_(0),
      display_name_(std::move(display_name)) {
  if (stride != 1 && stride != 2) {
    throw InvalidArgument("ShuffleChoiceBlock: stride must be 1 or 2");
  }
  if (stride == 1 && in_channels != out_channels) {
    throw InvalidArgument(
        "ShuffleChoiceBlock: stride-1 blocks require in == out channels");
  }
  if (out_channels % 2 != 0) {
    throw InvalidArgument("ShuffleChoiceBlock: out channels must be even");
  }

  const long kernel = block_kernel(kind);

  if (kind == BlockKind::kSkip) {
    if (stride == 1) {
      pure_identity_ = true;  // true skip: y = x, no parameters
      return;
    }
    // Skip at a reduction layer lowers to the minimal projection so the
    // layer can still change geometry (keeps K = 5 everywhere).
    BranchBuilder b{&main_.add_stage(display_name_ + ".skip_proj"), rng,
                    display_name_};
    b.dw(in_channels, 3, 2);
    b.pw(in_channels, out_channels, /*relu=*/true);
    return;
  }

  const long branch_out = out_channels / 2;
  mid_channels_ = branch_out;  // Sˡ of the paper's dynamic channel scaling
  const long branch_in = (stride == 1) ? in_channels / 2 : in_channels;

  BranchBuilder b{&main_.add_stage(display_name_ + ".main"), rng,
                  display_name_};
  // The mid width is sliced between this stage and the next one.
  const auto next_stage = [&] {
    b.seq = &main_.add_stage(display_name_ + ".main");
  };

  if (kind == BlockKind::kXception) {
    b.dw(branch_in, 3, stride);
    b.pw(branch_in, mid_channels_, /*relu=*/true);
    next_stage();
    b.dw(mid_channels_, 3, 1);
    next_stage();
    b.pw(mid_channels_, mid_channels_, /*relu=*/true);
    next_stage();
    b.dw(mid_channels_, 3, 1);
    next_stage();
    b.pw(mid_channels_, branch_out, /*relu=*/true);
  } else {
    b.pw(branch_in, mid_channels_, /*relu=*/true);
    next_stage();
    b.dw(mid_channels_, kernel, stride);
    next_stage();
    b.pw(mid_channels_, branch_out, /*relu=*/true);
  }

  if (stride == 2) {
    // The projection branch has fixed width (not searchable).
    const std::string proj_name = display_name_ + ".proj";
    proj_ = std::make_unique<Sequential>(proj_name);
    BranchBuilder p{proj_.get(), rng, proj_name};
    p.dw(in_channels, 3, 2);
    p.pw(in_channels, branch_out, /*relu=*/true);
  }
}

Tensor ShuffleChoiceBlock::forward_at(const Tensor& x, long active) {
  if (pure_identity_) return x;
  if (kind_ == BlockKind::kSkip) return main_.forward(x, active);
  // concat + channel shuffle as one interleave. At stride 1 the left half
  // is x's leading half, read in place.
  if (stride_ == 1) {
    const long half = in_channels_ / 2;
    return interleave_channels(
        x, main_.forward(slice_channels(x, half, half), active));
  }
  return interleave_channels(proj_->forward(x), main_.forward(x, active));
}

Tensor ShuffleChoiceBlock::backward(const Tensor& dy) {
  if (pure_identity_) return dy;
  if (kind_ == BlockKind::kSkip) return main_.backward(dy);
  Tensor d_left, d_main;
  deinterleave_channels(dy, d_left, d_main);
  if (stride_ == 1) {
    return concat_channels(d_left, main_.backward(d_main));
  }
  Tensor dx = proj_->backward(d_left);
  dx.add_(main_.backward(d_main));
  return dx;
}

void ShuffleChoiceBlock::collect_params(std::vector<Parameter*>& out) {
  main_.collect_params(out);
  if (proj_) proj_->collect_params(out);
}

void ShuffleChoiceBlock::visit(const std::function<void(Module&)>& fn) {
  fn(*this);
  main_.visit(fn);
  if (proj_) proj_->visit(fn);
}

}  // namespace hsconas::nn
