// Bit-exactness of the batch statistics (tensor::batch_stats), which sum
// blocks of 8, 4, 2 and 1 channels side by side; the contract is that
// every channel's double sums still run in the serial (sample, pixel)
// order, so BatchNorm2d's outputs (train and score mode), its running
// statistics (train mode; score mode leaves them at their initial values),
// the x̂ and 1/σ its train forward keeps (read back through backward()),
// and the in-place score-mode kernel (tensor::batch_norm_act_inplace, with
// each activation) equal, bit for bit, the one-channel-at-a-time
// reference below. The first batch is plain normal
// data, which pins the normalization arithmetic; the second carries a
// ±2^40 pair per channel, which makes the mean's double sum
// order-sensitive, so a reordered sum changes the bits. A tail that
// reads the wrong channel fails on both. (The variance sums non-negative
// terms: any order agrees to a few double ulps, below float resolution,
// so no float output can pin its order.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/batchnorm.h"
#include "tensor/batch_norm.h"
#include "util/rng.h"

namespace hsconas::nn {
namespace {

using tensor::Tensor;

struct Reference {
  Tensor y, xhat;
  std::vector<float> running_mean, running_var, inv_std;
};

/// The serial per-channel BN forward with batch statistics: mean and
/// biased variance in double, summed over (s, i) in order.
Reference serial_reference(const Tensor& x, const std::vector<float>& gamma,
                           const std::vector<float>& beta,
                           std::vector<float> running_mean,
                           std::vector<float> running_var, double momentum,
                           double eps) {
  const long n = x.dim(0), ch = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const double count = static_cast<double>(n * spatial);
  Tensor y(x.shape()), xhat(x.shape());
  std::vector<float> inv_stds;
  for (long c = 0; c < ch; ++c) {
    double mean = 0.0, var = 0.0;
    for (long s = 0; s < n; ++s) {
      const float* chan = x.data() + (s * ch + c) * spatial;
      for (long i = 0; i < spatial; ++i) mean += chan[i];
    }
    mean /= count;
    for (long s = 0; s < n; ++s) {
      const float* chan = x.data() + (s * ch + c) * spatial;
      for (long i = 0; i < spatial; ++i) {
        const double d = chan[i] - mean;
        var += d * d;
      }
    }
    var /= count;
    const auto cu = static_cast<std::size_t>(c);
    running_mean[cu] = static_cast<float>((1.0 - momentum) * running_mean[cu] +
                                          momentum * mean);
    running_var[cu] = static_cast<float>((1.0 - momentum) * running_var[cu] +
                                         momentum * var);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_stds.push_back(inv_std);
    const float fm = static_cast<float>(mean);
    for (long s = 0; s < n; ++s) {
      const long off = (s * ch + c) * spatial;
      for (long i = 0; i < spatial; ++i) {
        const float xh = (x.data()[off + i] - fm) * inv_std;
        xhat.data()[off + i] = xh;
        y.data()[off + i] = gamma[cu] * xh + beta[cu];
      }
    }
  }
  return {std::move(y), std::move(xhat), std::move(running_mean),
          std::move(running_var), std::move(inv_stds)};
}

struct Grads {
  Tensor dx;
  std::vector<float> dgamma, dbeta;
};

/// BatchNorm2d's backward, written out over the reference's x̂ and 1/σ.
Grads reference_backward(const Reference& ref, const Tensor& dy,
                         const std::vector<float>& gamma) {
  const long n = dy.dim(0), ch = dy.dim(1), spatial = dy.dim(2) * dy.dim(3);
  const double count = static_cast<double>(n * spatial);
  Grads g{Tensor(dy.shape()), {}, {}};
  for (long c = 0; c < ch; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (long s = 0; s < n; ++s) {
      const long off = (s * ch + c) * spatial;
      for (long i = 0; i < spatial; ++i) {
        sum_dy += dy.data()[off + i];
        sum_dy_xhat +=
            static_cast<double>(dy.data()[off + i]) * ref.xhat.data()[off + i];
      }
    }
    g.dgamma.push_back(static_cast<float>(sum_dy_xhat));
    g.dbeta.push_back(static_cast<float>(sum_dy));
    const auto cu = static_cast<std::size_t>(c);
    const float mean_dy = static_cast<float>(sum_dy / count);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
    for (long s = 0; s < n; ++s) {
      const long off = (s * ch + c) * spatial;
      for (long i = 0; i < spatial; ++i) {
        g.dx.data()[off + i] =
            gamma[cu] * ref.inv_std[cu] *
            (dy.data()[off + i] - mean_dy - ref.xhat.data()[off + i] *
                                                 mean_dy_xhat);
      }
    }
  }
  return g;
}

/// N(0, 1) values plus, per channel, +2^40 in the first sample and -2^40
/// in the last, at channel-dependent pixels.
Tensor order_sensitive_input(long n, long ch, long h, long w,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor x = Tensor::normal({n, ch, h, w}, 0.0f, 1.0f, rng);
  const long spatial = h * w;
  for (long c = 0; c < ch; ++c) {
    x.data()[c * spatial + (3 * c) % spatial] = 0x1p40f;
    x.data()[((n - 1) * ch + c) * spatial + (5 * c + 1) % spatial] = -0x1p40f;
  }
  return x;
}

bool same_bits(const float* a, const float* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(float)) == 0;
}

class InterleavedStats : public ::testing::TestWithParam<long> {};

TEST_P(InterleavedStats, MatchSerialPerChannelReference) {
  const long ch = GetParam();
  const long n = 3, h = 5, w = 7;
  const double momentum = 0.1, eps = 1e-5;
  util::Rng rng(static_cast<std::uint64_t>(100 + ch));
  std::vector<float> gamma, beta;
  for (long c = 0; c < ch; ++c) {
    gamma.push_back(static_cast<float>(rng.uniform(0.5, 1.5)));
    beta.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
  }
  BatchNorm2d train(ch, momentum, eps), score(ch, momentum, eps);
  score.set_mode(Mode::kScore);
  for (BatchNorm2d* bn : {&train, &score}) {
    std::copy(gamma.begin(), gamma.end(), bn->gamma().value.data());
    std::copy(beta.begin(), beta.end(), bn->beta().value.data());
  }

  // Two batches, so the second starts from non-trivial running stats.
  const std::vector<float> initial_mean(static_cast<std::size_t>(ch), 0.0f);
  const std::vector<float> initial_var(static_cast<std::size_t>(ch), 1.0f);
  std::vector<float> rm = initial_mean, rv = initial_var;
  for (int batch = 0; batch < 2; ++batch) {
    util::Rng data_rng(static_cast<std::uint64_t>(200 + ch));
    const Tensor x = batch == 0
                         ? Tensor::normal({n, ch, h, w}, 0.5f, 2.0f, data_rng)
                         : order_sensitive_input(n, ch, h, w, 7);
    const Reference ref =
        serial_reference(x, gamma, beta, rm, rv, momentum, eps);
    rm = ref.running_mean;
    rv = ref.running_var;
    const auto count = static_cast<std::size_t>(x.numel());
    const auto chans = static_cast<std::size_t>(ch);
    for (BatchNorm2d* bn : {&train, &score}) {
      const bool is_train = bn == &train;
      const char* mode = is_train ? "train" : "score";
      const Tensor y = bn->forward(x);
      EXPECT_TRUE(same_bits(y.data(), ref.y.data(), count))
          << mode << " output, channels " << ch << ", batch " << batch;
      const float* want_mean = is_train ? rm.data() : initial_mean.data();
      const float* want_var = is_train ? rv.data() : initial_var.data();
      EXPECT_TRUE(same_bits(bn->running_mean().data(), want_mean, chans))
          << mode << " running mean, channels " << ch << ", batch " << batch;
      EXPECT_TRUE(same_bits(bn->running_var().data(), want_var, chans))
          << mode << " running var, channels " << ch << ", batch " << batch;
    }
    // The train forward's x̂ and 1/σ, read back through its backward.
    const Tensor dy = Tensor::normal(x.shape(), 0.0f, 1.0f, data_rng);
    const Grads want = reference_backward(ref, dy, gamma);
    train.gamma().zero_grad();
    train.beta().zero_grad();
    const Tensor dx = train.backward(dy);
    EXPECT_TRUE(same_bits(dx.data(), want.dx.data(), count))
        << "dx, channels " << ch << ", batch " << batch;
    EXPECT_TRUE(same_bits(train.gamma().grad.data(), want.dgamma.data(), chans))
        << "dgamma, channels " << ch << ", batch " << batch;
    EXPECT_TRUE(same_bits(train.beta().grad.data(), want.dbeta.data(), chans))
        << "dbeta, channels " << ch << ", batch " << batch;

    // The in-place kernel, with each activation.
    for (const tensor::EpilogueAct act :
         {tensor::EpilogueAct::kNone, tensor::EpilogueAct::kReLU,
          tensor::EpilogueAct::kHSwish}) {
      Tensor inplace = x;
      tensor::batch_norm_act_inplace(inplace.data(), n, ch, h * w,
                                     gamma.data(), beta.data(), eps, act);
      Tensor want_act = ref.y;
      for (float& v : want_act.flat()) v = tensor::epilogue_apply(act, v);
      EXPECT_TRUE(same_bits(inplace.data(), want_act.data(), count))
          << "in place, act " << static_cast<int>(act) << ", channels "
          << ch << ", batch " << batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelCounts, InterleavedStats,
                         ::testing::Values(1L, 3L, 4L, 5L, 15L, 16L, 17L,
                                           23L));

TEST(InterleavedStats, InputsAreOrderSensitive) {
  // Guard for the fixture itself: summing the first channel in a
  // different order changes its double mean, so a reordered kernel cannot
  // pass MatchSerialPerChannelReference by accident.
  const Tensor x = order_sensitive_input(3, 1, 5, 7, 7);
  double forward = 0.0, backward = 0.0;
  for (long i = 0; i < x.numel(); ++i) forward += x.data()[i];
  for (long i = x.numel() - 1; i >= 0; --i) backward += x.data()[i];
  EXPECT_NE(forward, backward);
}

}  // namespace
}  // namespace hsconas::nn
