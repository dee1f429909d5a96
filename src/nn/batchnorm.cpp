#include "nn/batchnorm.h"

#include <cmath>

#include "nn/op_profile.h"
#include "tensor/batch_norm.h"

namespace hsconas::nn {

using tensor::Tensor;

BatchNorm2d::BatchNorm2d(long channels, double momentum, double eps,
                         std::string display_name)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      display_name_(std::move(display_name)),
      gamma_(display_name_ + ".gamma", Tensor::ones({channels}),
             /*decay=*/false),
      beta_(display_name_ + ".beta", Tensor({channels}), /*decay=*/false),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {
  if (channels <= 0) throw InvalidArgument("BatchNorm2d: channels <= 0");
}

void BatchNorm2d::reset_running_stats() {
  running_mean_.zero();
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  // ~4 ops/element (subtract, scale, gamma, beta); stats passes push the
  // traffic above the plain read+write default.
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("bn", "eltwise", x, 4.0, 12.0);
  });
  if (x.ndim() != 4 || x.dim(1) < 1 || x.dim(1) > channels_) {
    throw InvalidArgument("BatchNorm2d " + display_name_ +
                          ": bad input shape " + x.shape_str());
  }
  // A width-sliced input normalizes its leading channels only.
  const long channels = x.dim(1);
  const long n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const long spatial = h * w;
  const bool batch_statistics = !is_eval(mode());
  const bool keep = keeps_backward_state();

  // Every element is written by the normalization below.
  Tensor y = Tensor::for_overwrite(x.shape());
  if (keep) {
    cached_xhat_ = Tensor::for_overwrite(x.shape());
    cached_inv_std_.assign(static_cast<std::size_t>(channels), 0.0f);
    note_backward_state(cached_xhat_);
    note_backward_state(cached_inv_std_.size() * sizeof(float));
  }

  // Statistics, then normalization, for one block of L channels; blocks
  // of four, then a one-channel tail.
  auto block = [&]<long L>(long c0) {
    double mean[L], var[L];
    if (batch_statistics) {
      tensor::batch_stats(x.data(), n, channels, spatial, c0, L, mean, var);
      // Only a train forward moves the running estimates: a score
      // forward writes no member.
      for (long l = 0; keep && l < L; ++l) {
        const long c = c0 + l;
        running_mean_.at(c) = static_cast<float>(
            (1.0 - momentum_) * running_mean_.at(c) + momentum_ * mean[l]);
        running_var_.at(c) = static_cast<float>(
            (1.0 - momentum_) * running_var_.at(c) + momentum_ * var[l]);
      }
    } else {
      for (long l = 0; l < L; ++l) {
        mean[l] = running_mean_.at(c0 + l);
        var[l] = running_var_.at(c0 + l);
      }
    }
    for (long l = 0; l < L; ++l) {
      const long c = c0 + l;
      const float inv_std =
          static_cast<float>(1.0 / std::sqrt(var[l] + eps_));
      const float g = gamma_.value.at(c), b = beta_.value.at(c);
      const float fm = static_cast<float>(mean[l]);
      if (keep) cached_inv_std_[static_cast<std::size_t>(c)] = inv_std;
      for (long s = 0; s < n; ++s) {
        const long off = (s * channels + c) * spatial;
        const float* chan = x.data() + off;
        float* out = y.data() + off;
        if (keep) {
          float* xhat = cached_xhat_.data() + off;
          for (long i = 0; i < spatial; ++i) {
            const float xh = (chan[i] - fm) * inv_std;
            xhat[i] = xh;
            out[i] = g * xh + b;
          }
        } else {
          for (long i = 0; i < spatial; ++i) {
            out[i] = g * ((chan[i] - fm) * inv_std) + b;
          }
        }
      }
    }
  };
  long c = 0;
  for (; c + 4 <= channels; c += 4) block.template operator()<4>(c);
  for (; c < channels; ++c) block.template operator()<1>(c);
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  obs::OpScope prof([&] {
    return detail::elementwise_op_info("bn.bwd", "eltwise", dy, 8.0, 16.0);
  });
  HSCONAS_CHECK_MSG(!cached_xhat_.empty(),
                    "BatchNorm2d::backward before forward");
  const long n = cached_xhat_.dim(0), channels = cached_xhat_.dim(1);
  const long h = cached_xhat_.dim(2), w = cached_xhat_.dim(3);
  const long spatial = h * w;
  const double count = static_cast<double>(n * spatial);
  HSCONAS_CHECK_MSG(dy.shape() == cached_xhat_.shape(),
                    "BatchNorm2d::backward: dy shape mismatch");

  // Every element is written below; the gradients of channels the
  // forward did not run stay untouched.
  Tensor dx = Tensor::for_overwrite(dy.shape());
  for (long c = 0; c < channels; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (long s = 0; s < n; ++s) {
      const float* grad = dy.data() + ((s * channels + c) * spatial);
      const float* xhat =
          cached_xhat_.data() + ((s * channels + c) * spatial);
      for (long i = 0; i < spatial; ++i) {
        sum_dy += grad[i];
        sum_dy_xhat += static_cast<double>(grad[i]) * xhat[i];
      }
    }
    gamma_.grad.at(c) += static_cast<float>(sum_dy_xhat);
    beta_.grad.at(c) += static_cast<float>(sum_dy);

    const float g = gamma_.value.at(c);
    const float inv_std = cached_inv_std_[static_cast<std::size_t>(c)];
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);

    for (long s = 0; s < n; ++s) {
      const float* grad = dy.data() + ((s * channels + c) * spatial);
      const float* xhat =
          cached_xhat_.data() + ((s * channels + c) * spatial);
      float* out = dx.data() + ((s * channels + c) * spatial);
      for (long i = 0; i < spatial; ++i) {
        out[i] = g * inv_std * (grad[i] - mean_dy - xhat[i] * mean_dy_xhat);
      }
    }
  }
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

}  // namespace hsconas::nn
