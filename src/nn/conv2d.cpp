#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "nn/op_profile.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_i8.h"
#include "tensor/quantize_i8.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace hsconas::nn {

using tensor::ConvGeom;
using tensor::Tensor;

namespace {

/// Profiler describe callback payload, keyed by the widths the call runs
/// at (`out_channels` as for forward). `work_mult` scales the analytic
/// single-pass work: 1 for forward, 2 for backward (dW and dX GEMMs).
/// Defensive about shapes — forward_impl's own validation throws after
/// the scope opens, so a malformed input must not crash the hook.
obs::OpInfo conv_op_info(const Conv2d& conv, const Tensor& x,
                         long out_channels, const char* op,
                         double work_mult) {
  obs::OpInfo info;
  info.key.op = op;
  const bool depthwise = conv.groups() == conv.in_channels() &&
                         conv.groups() == conv.out_channels();
  info.key.kind = depthwise ? "dwconv" : "conv";
  info.key.in_ch = conv.in_channels();
  info.key.out_ch = conv.out_channels();
  info.key.kernel = conv.kernel();
  info.key.stride = conv.stride();
  info.key.groups = conv.groups();
  const Conv2d::Widths cw = conv.widths(x, out_channels);
  if (!cw.valid) return info;
  const long cin = cw.cin, cout = cw.cout, groups = cw.groups;
  info.key.in_ch = cin;
  info.key.out_ch = cout;
  info.key.groups = groups;
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  info.key.batch = n;
  info.key.in_h = h;
  info.key.in_w = w;
  ConvGeom geom{cin / groups, h, w, conv.kernel(), conv.stride(), conv.pad()};
  if (geom.out_h() <= 0 || geom.out_w() <= 0) return info;
  const double batch = static_cast<double>(n);
  const double out_plane = static_cast<double>(geom.out_h() * geom.out_w());
  const double weight_numel = static_cast<double>(
      cout * (cin / groups) * conv.kernel() * conv.kernel());
  const double macs = weight_numel * out_plane;
  const double out_numel = batch * static_cast<double>(cout) * out_plane;
  info.flops = work_mult * 2.0 * macs * batch;
  info.bytes = work_mult * 4.0 *
               (static_cast<double>(x.numel()) + out_numel + weight_numel);
  return info;
}

}  // namespace

Conv2d::Conv2d(long in_channels, long out_channels, long kernel, long stride,
               long pad, long groups, bool bias, util::Rng& rng,
               std::string display_name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      groups_(groups),
      has_bias_(bias),
      display_name_(std::move(display_name)) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0 || groups <= 0) {
    throw InvalidArgument("Conv2d: non-positive geometry");
  }
  if (in_channels % groups != 0 || out_channels % groups != 0) {
    throw InvalidArgument("Conv2d: channels not divisible by groups");
  }
  const long fan_in = (in_channels / groups) * kernel * kernel;
  const float std_dev =
      std::sqrt(2.0f / static_cast<float>(fan_in));  // Kaiming, ReLU gain
  weight_ = Parameter(
      display_name_ + ".weight",
      Tensor::normal({out_channels, in_channels / groups, kernel, kernel},
                     0.0f, std_dev, rng),
      /*decay=*/true);
  if (has_bias_) {
    bias_ = Parameter(display_name_ + ".bias", Tensor({out_channels}),
                      /*decay=*/false);
  }
}

Conv2d::Widths Conv2d::widths(const Tensor& x, long out_channels) const {
  const bool depthwise = in_channels_ / groups_ == 1 &&
                         out_channels_ / groups_ == 1;
  const long cin = x.ndim() == 4 ? x.dim(1) : 0;
  const long cout = depthwise ? cin
                    : out_channels > 0 ? out_channels
                                       : out_channels_;
  const bool full = cin == in_channels_ && cout == out_channels_;
  const bool sliced = (depthwise || groups_ == 1) && cin >= 1 &&
                      cin <= in_channels_ && cout >= 1 &&
                      cout <= out_channels_;
  return {cin, cout, depthwise ? cin : groups_, full || sliced};
}

Tensor Conv2d::forward(const Tensor& x, long out_channels) {
  obs::OpScope prof(
      [&] { return conv_op_info(*this, x, out_channels, "conv2d", 1.0); });
  // Fold the bias into the GEMM epilogue (scale 1, shift b, no act): the
  // sum and the single bias add happen in the same order as a separate
  // bias pass would do them, so training numbers are unchanged — minus
  // one full pass over the output tensor.
  tensor::GemmEpilogue ep;
  if (has_bias_) ep.shift = bias_.value.data();
  Tensor y = forward_impl(x, out_channels, has_bias_ ? &ep : nullptr);
  keep_for_backward(cached_input_, x);
  return y;
}

Tensor Conv2d::forward_fused(const Tensor& x, const float* scale,
                             const float* shift, tensor::EpilogueAct act,
                             long out_channels) {
  obs::OpScope prof([&] {
    return conv_op_info(*this, x, out_channels, "conv2d.fused", 1.0);
  });
  tensor::GemmEpilogue ep;
  ep.scale = scale;
  ep.shift = shift;
  ep.act = act;
  return forward_impl(x, out_channels, &ep);
}

Tensor Conv2d::forward_impl(const Tensor& x, long out_channels,
                            const tensor::GemmEpilogue* ep) {
  const Widths cw = widths(x, out_channels);
  if (!cw.valid) {
    throw InvalidArgument("Conv2d " + display_name_ + ": bad input shape " +
                          x.shape_str() + " for " + std::to_string(cw.cout) +
                          " output channels");
  }
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = cw.cin / cw.groups;
  const long cout_g = cw.cout / cw.groups;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  if (oh <= 0 || ow <= 0) {
    throw InvalidArgument("Conv2d " + display_name_ +
                          ": output collapses to zero size");
  }

  if (is_eval(mode())) {
    // The dtype seam. An armed observer sees the fp32 input; the int8
    // path takes over only for calibrated layers (and only at reduction
    // depths the int32 accumulators cover, judged on the full weight row
    // so that every width of a layer computes in one dtype — others keep
    // computing fp32, so mixed-readiness models stay correct).
    if (quant_.observing) {
      quant_.observer.observe(x.data(), static_cast<std::size_t>(x.numel()));
    }
    if (quant_.ready &&
        static_cast<std::size_t>(weight_row()) <= tensor::kGemmI8MaxK) {
      return forward_quant_impl(x, cw, ep);
    }
  }

  // Every element of y is written below: by the depthwise writeback, or
  // by the conv GEMM's first K block.
  Tensor y = Tensor::for_overwrite({n, cw.cout, oh, ow});
  const long ohw = oh * ow;
  auto& pool = util::ThreadPool::global();

  if (cin_g == 1 && cout_g == 1) {
    // Depthwise: per channel, run that channel of every sample through
    // one batch-stacked pass, the epilogue (row c of `ep`) fused into its
    // writeback — the layout forward_quant_impl uses for int8.
    const long k = kernel_;
    pool.parallel_for(static_cast<std::size_t>(cw.cout),
                      static_cast<std::size_t>(n * ohw * k * k),
                      [&](std::size_t ci) {
      const long c = static_cast<long>(ci);
      tensor::depthwise_f32(x.data() + c * h * w,
                            static_cast<std::size_t>(cw.cin * h * w), n, geom,
                            weight_.value.data() + c * k * k, ep, ci,
                            y.data() + c * ohw,
                            static_cast<std::size_t>(cw.cout * ohw));
    });
    return y;
  }

  // One GEMM per group over the whole batch: the (cout_g × cin_g·k²)
  // leading window of the group's weights (row stride weight_row()) times
  // the group's conv view, whose column (sample, output pixel) the GEMM
  // packs straight from x and writes straight into y's NCHW slots.
  const long lda = weight_row();
  for (long g = 0; g < cw.groups; ++g) {
    const tensor::ConvInput<float> in{
        x.data() + g * cin_g * h * w,
        static_cast<std::size_t>(cw.cin * h * w), geom,
        static_cast<std::size_t>(n)};
    const tensor::ConvOutput out{
        y.data() + g * cout_g * ohw,
        static_cast<std::size_t>(cw.cout * ohw)};
    const float* wgt = weight_.value.data() + g * cout_g * lda;
    const auto m = static_cast<std::size_t>(cout_g);
    if (ep != nullptr) {
      // The GEMM row axis is the output channel within this group, so the
      // per-row epilogue is exactly the per-channel bias/BN/act — sliced
      // to this group's channel range.
      tensor::GemmEpilogue gep;
      gep.scale = ep->scale != nullptr ? ep->scale + g * cout_g : nullptr;
      gep.shift = ep->shift != nullptr ? ep->shift + g * cout_g : nullptr;
      gep.act = ep->act;
      tensor::gemm_fused(m, wgt, static_cast<std::size_t>(lda), in, out, gep);
    } else {
      tensor::gemm(m, wgt, static_cast<std::size_t>(lda), in, out);
    }
  }
  return y;
}

Tensor Conv2d::forward_quant_impl(const Tensor& x, const Widths& cw,
                                  const tensor::GemmEpilogue* ep) {
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = cw.cin / cw.groups;
  const long cout_g = cw.cout / cw.groups;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  // Written in full: by the depthwise requantize or the GEMM writeback.
  Tensor y = Tensor::for_overwrite({n, cw.cout, oh, ow});
  const long col_rows = cin_g * kernel_ * kernel_;
  const long lda = weight_row();
  const long hw = h * w, ohw = oh * ow;
  auto& pool = util::ThreadPool::global();

  const tensor::QuantParams aq = quant_.input;
  const std::int8_t* qw = quant_.qweight.data();

  // Compose the caller's per-channel affine with the dequantization:
  //   real_acc = s_a * s_w[c] * (int_acc - z_a * wsum[c])
  // so  act(scale[c] * real_acc + shift[c])
  //   = act((scale[c] * s_a * s_w[c]) * (int_acc + acc_bias[c]) + shift[c])
  // with acc_bias[c] = -z_a * wsum[c] — exactly the QuantEpilogue form,
  // applied by the requantizing writeback. wsum[c] sums the row's window
  // the GEMM reads (the whole row unless the input is width-sliced).
  // Every input element is quantized exactly once; padding enters as z_a,
  // the code of a real 0 (the observer range always includes 0), so a
  // padded tap adds w·z_a, which the row's acc_bias cancels exactly.
  tensor::Workspace& ws = tensor::Workspace::tls();
  tensor::Scratch qscale = ws.take(static_cast<std::size_t>(cw.cout));
  tensor::Scratch<std::int32_t> acc_bias =
      ws.take<std::int32_t>(static_cast<std::size_t>(cw.cout));
  for (long c = 0; c < cw.cout; ++c) {
    const float es =
        (ep != nullptr && ep->scale != nullptr) ? ep->scale[c] : 1.0f;
    const auto ci = static_cast<std::size_t>(c);
    std::int32_t wsum = quant_.weight_row_sums[ci];
    if (col_rows < lda) {
      const std::int8_t* row = qw + c * lda;
      wsum = std::accumulate(row, row + col_rows, std::int32_t{0});
    }
    qscale[ci] = es * aq.scale * quant_.weight_scales[ci];
    acc_bias[ci] = -aq.zero_point * wsum;
  }
  tensor::QuantEpilogue qep;
  qep.scale = qscale.data();
  qep.shift = ep != nullptr ? ep->shift : nullptr;
  qep.acc_bias = acc_bias.data();
  qep.act = ep != nullptr ? ep->act : tensor::EpilogueAct::kNone;

  // Every path starts from the u8 codes of the whole batch, quantized once.
  const auto za = static_cast<std::uint8_t>(aq.zero_point);
  const long chw = cw.cin * hw;
  tensor::Scratch<std::uint8_t> codes =
      ws.take<std::uint8_t>(static_cast<std::size_t>(n * chw));
  pool.parallel_for(static_cast<std::size_t>(n), static_cast<std::size_t>(chw),
                    [&](std::size_t si) {
    const long s = static_cast<long>(si);
    tensor::quantize_u8(x.data() + s * chw, static_cast<std::size_t>(chw), aq,
                        codes.data() + s * chw);
  });

  if (cin_g == 1 && cout_g == 1) {
    // Depthwise: per channel, accumulate the full k×k windows of that
    // channel of every sample in one int32 pass, then requantize each
    // sample's plane as one writeback row (row c of the epilogue).
    const long k = kernel_;
    pool.parallel_for(static_cast<std::size_t>(cw.cout),
                      static_cast<std::size_t>(n * ohw * k * k),
                      [&](std::size_t ci) {
      const long c = static_cast<long>(ci);
      tensor::Scratch<std::int32_t> accs =
          tensor::Workspace::tls().take<std::int32_t>(
              static_cast<std::size_t>(n * ohw));
      std::int32_t* acc = accs.data();
      tensor::depthwise_i8(codes.data() + c * hw, static_cast<std::size_t>(chw),
                           n, geom, za, qw + c * k * k, acc);
      const auto row = static_cast<std::size_t>(ohw);
      for (long s = 0; s < n; ++s) {
        tensor::requant_rows(qep, ci, 1, row, acc + s * ohw, row,
                             y.data() + (s * cw.cout + c) * ohw, row);
      }
    });
    return y;
  }

  // One int8 GEMM per group over the conv view of the group's codes,
  // dequantizing in its writeback straight into y. Each code depends only
  // on its input element, so batched == sequential bit-identically.
  for (long g = 0; g < cw.groups; ++g) {
    const tensor::ConvInput<std::uint8_t> in{
        codes.data() + g * cin_g * hw, static_cast<std::size_t>(chw), geom,
        static_cast<std::size_t>(n), za};
    const tensor::ConvOutput out{y.data() + g * cout_g * ohw,
                                 static_cast<std::size_t>(cw.cout * ohw)};
    tensor::QuantEpilogue gep = qep;
    gep.scale += g * cout_g;
    if (gep.shift != nullptr) gep.shift += g * cout_g;
    gep.acc_bias += g * cout_g;
    tensor::gemm_i8_requant(static_cast<std::size_t>(cout_g),
                            qw + g * cout_g * lda,
                            static_cast<std::size_t>(lda), in, out, gep);
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
  const Tensor& x = cached_input_;
  HSCONAS_CHECK_MSG(!x.empty(), "Conv2d::backward before forward");
  const long dy_ch = dy.ndim() == 4 ? dy.dim(1) : 0;
  obs::OpScope prof(
      [&] { return conv_op_info(*this, x, dy_ch, "conv2d.bwd", 2.0); });
  const Widths cw = widths(x, dy_ch);
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long cin_g = cw.cin / cw.groups;
  const long cout_g = cw.cout / cw.groups;
  ConvGeom geom{cin_g, h, w, kernel_, stride_, pad_};
  const long oh = geom.out_h(), ow = geom.out_w();
  HSCONAS_CHECK_MSG(cw.valid && dy.ndim() == 4 && dy.dim(0) == n &&
                        dy.dim(1) == cw.cout && dy.dim(2) == oh &&
                        dy.dim(3) == ow,
                    "Conv2d::backward: dy shape mismatch");

  Tensor dx(x.shape());
  const long col_rows = cin_g * kernel_ * kernel_;
  const long lda = weight_row();
  const long ohw = oh * ow;

  // Batch across samples: per group, build the concatenated column matrix
  // and output-gradient panel once, run two well-shaped GEMMs, then
  // scatter the column gradients back per sample. Sample s owns columns
  // [s · ohw, (s + 1) · ohw) of the (col_rows × N·ohw) matrices, so
  // im2col and col2im work on it in place at row stride N·ohw.
  tensor::Workspace& ws = tensor::Workspace::tls();
  const auto ld = static_cast<std::size_t>(n * ohw);
  tensor::Scratch cols = ws.take(static_cast<std::size_t>(col_rows) * ld);
  tensor::Scratch dy_panel = ws.take(static_cast<std::size_t>(cout_g) * ld);
  tensor::Scratch dcols = ws.take(static_cast<std::size_t>(col_rows) * ld);
  auto& pool = util::ThreadPool::global();

  for (long g = 0; g < cw.groups; ++g) {
    pool.parallel_for(static_cast<std::size_t>(n),
                      static_cast<std::size_t>((col_rows + cout_g) * ohw),
                      [&](std::size_t si) {
      const long s = static_cast<long>(si);
      const float* img = x.data() + ((s * cw.cin + g * cin_g) * h * w);
      tensor::im2col(img, geom, cols.data() + s * ohw, ld);
      for (long c = 0; c < cout_g; ++c) {
        const float* grad_out =
            dy.data() + ((s * cw.cout + g * cout_g + c) * ohw);
        std::copy(grad_out, grad_out + ohw,
                  dy_panel.data() + (c * n + s) * ohw);
      }
    });

    // The group's active window of the weights and their gradient: its
    // leading cout_g rows and col_rows columns, row stride lda.
    float* wgrad = weight_.grad.data() + g * cout_g * lda;
    const float* wgt = weight_.value.data() + g * cout_g * lda;

    // dW += dY_panel · colsᵀ  — (cout_g × N·ohw) · (N·ohw × col_rows), on
    // the path the group's whole gradient takes, so the window's sums are
    // grouped as at full width.
    tensor::gemm_a_bt(static_cast<std::size_t>(cout_g),
                      static_cast<std::size_t>(col_rows), ld, 1.0f,
                      dy_panel.data(), cols.data(), 1.0f, wgrad,
                      static_cast<std::size_t>(lda),
                      static_cast<std::size_t>(out_channels_ / groups_));

    // dcols = Wᵀ · dY_panel — (col_rows × cout_g) · (cout_g × N·ohw).
    tensor::gemm_at_b(static_cast<std::size_t>(col_rows), ld,
                      static_cast<std::size_t>(cout_g), 1.0f, wgt,
                      dy_panel.data(), 0.0f, dcols.data(),
                      static_cast<std::size_t>(lda));

    // Each sample's image-gradient slab is disjoint, so the col2im
    // scatter runs per sample in parallel too.
    pool.parallel_for(static_cast<std::size_t>(n),
                      static_cast<std::size_t>(col_rows * ohw),
                      [&](std::size_t si) {
      const long s = static_cast<long>(si);
      float* img_grad = dx.data() + ((s * cw.cin + g * cin_g) * h * w);
      tensor::col2im(dcols.data() + s * ohw, geom, img_grad, ld);
    });
  }

  if (has_bias_) {
    for (long s = 0; s < n; ++s) {
      for (long c = 0; c < cw.cout; ++c) {
        const float* grad_out = dy.data() + ((s * cw.cout + c) * ohw);
        float acc = 0.0f;
        for (long i = 0; i < ohw; ++i) acc += grad_out[i];
        bias_.grad.at(c) += acc;
      }
    }
  }
  return dx;
}

void Conv2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

long Conv2d::macs(long in_h, long in_w) const {
  ConvGeom geom{in_channels_ / groups_, in_h, in_w, kernel_, stride_, pad_};
  const long out_spatial = geom.out_h() * geom.out_w();
  return out_channels_ * (in_channels_ / groups_) * kernel_ * kernel_ *
         out_spatial;
}

}  // namespace hsconas::nn
