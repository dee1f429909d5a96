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
  const long n = x.dim(0);
  // The int8 GEMM wants the signed operand as A rows, so compute
  // C = W_q (out×in) · X_qᵀ (in×N) and transpose the (out, N) result
  // back to (N, out). The batch is quantized in one pass and its codes
  // transposed; each element is quantized independently and integer
  // accumulation is exact, so batched == sequential bit-exactly.
  tensor::Workspace& ws = tensor::Workspace::tls();
  const tensor::QuantParams aq = quant_.input;
  const auto numel = static_cast<std::size_t>(n * in_features_);
  auto qrows = ws.take<std::uint8_t>(numel);
  tensor::quantize_u8(x.data(), numel, aq, qrows.data());
  auto qx = ws.take<std::uint8_t>(numel);
  for (long s = 0; s < n; ++s) {
    for (long t = 0; t < in_features_; ++t) {
      qx[static_cast<std::size_t>(t * n + s)] =
          qrows[static_cast<std::size_t>(s * in_features_ + t)];
    }
  }
  tensor::Scratch qscale = ws.take(static_cast<std::size_t>(out_features_));
  auto acc_bias =
      ws.take<std::int32_t>(static_cast<std::size_t>(out_features_));
  for (long o = 0; o < out_features_; ++o) {
    qscale[static_cast<std::size_t>(o)] =
        aq.scale * quant_.weight_scales[static_cast<std::size_t>(o)];
    acc_bias[static_cast<std::size_t>(o)] =
        -aq.zero_point * quant_.weight_row_sums[static_cast<std::size_t>(o)];
  }
  tensor::QuantEpilogue qep;
  qep.scale = qscale.data();
  qep.shift = bias_.value.data();
  qep.acc_bias = acc_bias.data();
  tensor::Scratch out_panel =
      ws.take(static_cast<std::size_t>(out_features_ * n));
  tensor::gemm_i8_requant(static_cast<std::size_t>(out_features_),
                          static_cast<std::size_t>(n),
                          static_cast<std::size_t>(in_features_),
                          quant_.qweight.i8_data(), qx.data(),
                          out_panel.data(), qep);
  Tensor y({n, out_features_});
  for (long s = 0; s < n; ++s) {
    for (long o = 0; o < out_features_; ++o) {
      y.at(s, o) = out_panel[static_cast<std::size_t>(o * n + s)];
    }
  }
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
