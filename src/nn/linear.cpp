#include "nn/linear.h"

#include <cmath>

#include "nn/op_profile.h"
#include "tensor/gemm.h"
#include "tensor/gemm_i8.h"
#include "tensor/quantize_i8.h"
#include "tensor/workspace.h"

namespace hsconas::nn {

using tensor::Tensor;

namespace {

obs::OpInfo linear_op_info(const Linear& lin, const Tensor& x, const char* op,
                           double work_mult) {
  obs::OpInfo info;
  info.key.op = op;
  info.key.kind = "linear";
  info.key.in_ch = lin.in_features();
  info.key.out_ch = lin.out_features();
  info.key.in_h = 1;
  info.key.in_w = 1;
  if (x.ndim() != 2 || x.dim(1) != lin.in_features()) return info;
  const double n = static_cast<double>(x.dim(0));
  info.key.batch = x.dim(0);
  const double in_f = static_cast<double>(lin.in_features());
  const double out_f = static_cast<double>(lin.out_features());
  info.flops = work_mult * 2.0 * n * in_f * out_f;
  info.bytes =
      work_mult * 4.0 * (n * in_f + n * out_f + in_f * out_f + out_f);
  return info;
}

}  // namespace

Linear::Linear(long in_features, long out_features, util::Rng& rng,
               std::string display_name)
    : in_features_(in_features),
      out_features_(out_features),
      display_name_(std::move(display_name)) {
  if (in_features <= 0 || out_features <= 0) {
    throw InvalidArgument("Linear: non-positive dimensions");
  }
  const float std_dev =
      std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = Parameter(display_name_ + ".weight",
                      Tensor::normal({out_features, in_features}, 0.0f,
                                     std_dev, rng),
                      /*decay=*/true);
  bias_ = Parameter(display_name_ + ".bias", Tensor({out_features}),
                    /*decay=*/false);
}

Tensor Linear::forward(const Tensor& x) {
  obs::OpScope prof([&] { return linear_op_info(*this, x, "linear", 1.0); });
  if (x.ndim() != 2 || x.dim(1) != in_features_) {
    throw InvalidArgument("Linear " + display_name_ + ": bad input shape " +
                          x.shape_str());
  }
  keep_for_backward(cached_input_, x);
  if (is_eval(mode())) {
    if (quant_.observing) {
      quant_.observer.observe(x.data(), static_cast<std::size_t>(x.numel()));
    }
    if (quant_.ready &&
        static_cast<std::size_t>(in_features_) <= tensor::kGemmI8MaxK) {
      return forward_quant(x);
    }
  }
  const long n = x.dim(0);
  Tensor y({n, out_features_});
  // Y = X · Wᵀ
  tensor::gemm_a_bt(static_cast<std::size_t>(n),
                    static_cast<std::size_t>(out_features_),
                    static_cast<std::size_t>(in_features_), 1.0f, x.data(),
                    weight_.value.data(), 0.0f, y.data());
  for (long s = 0; s < n; ++s) {
    for (long o = 0; o < out_features_; ++o) {
      y.at(s, o) += bias_.value.at(o);
    }
  }
  return y;
}

Tensor Linear::forward_quant(const Tensor& x) {
  // The int8 layer runs as the 1×1 int8 conv it is: the batch's codes,
  // quantized in one pass, are N images of in_features channels of 1×1
  // read through the conv view, and each finished tile is requantized
  // straight into y's (N, out) rows. Each element is quantized on its own
  // and integer accumulation is exact, so batched == sequential
  // bit-exactly.
  const long n = x.dim(0);
  tensor::Workspace& ws = tensor::Workspace::tls();
  const tensor::QuantParams aq = quant_.input;
  const auto in = static_cast<std::size_t>(in_features_);
  const auto out = static_cast<std::size_t>(out_features_);
  auto codes = ws.take<std::uint8_t>(static_cast<std::size_t>(n) * in);
  tensor::quantize_u8(x.data(), static_cast<std::size_t>(n) * in, aq,
                      codes.data());
  tensor::Scratch qscale = ws.take(out);
  auto acc_bias = ws.take<std::int32_t>(out);
  for (std::size_t o = 0; o < out; ++o) {
    qscale[o] = aq.scale * quant_.weight_scales[o];
    acc_bias[o] = -aq.zero_point * quant_.weight_row_sums[o];
  }
  tensor::QuantEpilogue qep;
  qep.scale = qscale.data();
  qep.shift = bias_.value.data();
  qep.acc_bias = acc_bias.data();
  Tensor y = Tensor::for_overwrite({n, out_features_});
  const tensor::ConvInput<std::uint8_t> view{
      codes.data(), in, {in_features_, 1, 1, 1, 1, 0},
      static_cast<std::size_t>(n), static_cast<std::uint8_t>(aq.zero_point)};
  tensor::gemm_i8_requant(out, quant_.qweight.data(), in, view,
                          tensor::ConvOutput{y.data(), out}, qep);
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  HSCONAS_CHECK_MSG(!cached_input_.empty(),
                    "Linear::backward before forward");
  obs::OpScope prof([&] {
    return linear_op_info(*this, cached_input_, "linear.bwd", 2.0);
  });
  const long n = cached_input_.dim(0);
  HSCONAS_CHECK_MSG(dy.ndim() == 2 && dy.dim(0) == n &&
                        dy.dim(1) == out_features_,
                    "Linear::backward: dy shape mismatch");
  // dW += dYᵀ · X ;  dX = dY · W ;  db += colsum(dY)
  tensor::gemm_at_b(static_cast<std::size_t>(out_features_),
                    static_cast<std::size_t>(in_features_),
                    static_cast<std::size_t>(n), 1.0f, dy.data(),
                    cached_input_.data(), 1.0f, weight_.grad.data());
  Tensor dx({n, in_features_});
  tensor::gemm(static_cast<std::size_t>(n),
               static_cast<std::size_t>(in_features_),
               static_cast<std::size_t>(out_features_), 1.0f, dy.data(),
               weight_.value.data(), 0.0f, dx.data());
  for (long s = 0; s < n; ++s) {
    for (long o = 0; o < out_features_; ++o) {
      bias_.grad.at(o) += dy.at(s, o);
    }
  }
  return dx;
}

void Linear::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

}  // namespace hsconas::nn
