#include "tensor/batch_norm.h"

#include <cmath>

// This TU is compiled with -ffp-contract=off (src/tensor/CMakeLists.txt):
// the vectorized normalization rounds its subtract, both products and the
// add on their own, as BatchNorm2d's forward does, and the variance's
// d · d + sum stays two roundings.

namespace hsconas::tensor {

namespace {

/// Channels per statistics block: eight independent add chains hide the
/// latency of the double adds.
constexpr long kStatBlock = 8;

/// Mean and biased variance of the L channels [c0, c0 + L).
template <long L>
void stats_block(const float* x, long n, long channels, long spatial, long c0,
                 double* mean, double* var) {
  const double count = static_cast<double>(n * spatial);
  double sum[L] = {};
  for (long s = 0; s < n; ++s) {
    const float* base = x + (s * channels + c0) * spatial;
    for (long i = 0; i < spatial; ++i) {
      for (long l = 0; l < L; ++l) sum[l] += base[l * spatial + i];
    }
  }
  for (long l = 0; l < L; ++l) mean[l] = sum[l] / count;
  double sq[L] = {};
  for (long s = 0; s < n; ++s) {
    const float* base = x + (s * channels + c0) * spatial;
    for (long i = 0; i < spatial; ++i) {
      for (long l = 0; l < L; ++l) {
        const double d = base[l * spatial + i] - mean[l];
        sq[l] += d * d;
      }
    }
  }
  for (long l = 0; l < L; ++l) var[l] = sq[l] / count;
}

/// Call f.template operator()<L>(c) over [c0, end) in blocks: as many
/// blocks of the first L as fit, then of the next, and so on.
template <long... Ls, class F>
void for_channel_blocks(long c0, long end, F&& f) {
  long c = c0;
  (
      [&] {
        for (; c + Ls <= end; c += Ls) f.template operator()<Ls>(c);
      }(),
      ...);
}

template <EpilogueAct kAct>
void normalize_inplace(float* x, long n, long channels, long spatial,
                       const float* gamma, const float* beta, double eps) {
  // Statistics, then normalization, one block at a time: the block's
  // planes are still in cache for the second pass.
  for_channel_blocks<kStatBlock, 4, 2, 1>(0, channels, [&]<long L>(long c0) {
    double mean[L], var[L];
    stats_block<L>(x, n, channels, spatial, c0, mean, var);
    for (long l = 0; l < L; ++l) {
      const long c = c0 + l;
      const float inv_std = static_cast<float>(1.0 / std::sqrt(var[l] + eps));
      const float g = gamma[c], b = beta[c];
      const float fm = static_cast<float>(mean[l]);
      for (long s = 0; s < n; ++s) {
        float* plane = x + (s * channels + c) * spatial;
        for (long i = 0; i < spatial; ++i) {
          plane[i] = epilogue_apply(kAct, g * ((plane[i] - fm) * inv_std) + b);
        }
      }
    }
  });
}

}  // namespace

void batch_stats(const float* x, long n, long channels, long spatial, long c0,
                 long count, double* mean, double* var) {
  for_channel_blocks<kStatBlock, 4, 2, 1>(
      c0, c0 + count, [&]<long L>(long c) {
        stats_block<L>(x, n, channels, spatial, c, mean + (c - c0),
                       var + (c - c0));
      });
}

void batch_norm_act_inplace(float* x, long n, long channels, long spatial,
                            const float* gamma, const float* beta, double eps,
                            EpilogueAct act) {
  switch (act) {
    case EpilogueAct::kNone:
      return normalize_inplace<EpilogueAct::kNone>(x, n, channels, spatial,
                                                   gamma, beta, eps);
    case EpilogueAct::kReLU:
      return normalize_inplace<EpilogueAct::kReLU>(x, n, channels, spatial,
                                                   gamma, beta, eps);
    case EpilogueAct::kHSwish:
      return normalize_inplace<EpilogueAct::kHSwish>(x, n, channels, spatial,
                                                     gamma, beta, eps);
  }
}

}  // namespace hsconas::tensor
