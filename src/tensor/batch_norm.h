#pragma once

#include "tensor/gemm.h"

namespace hsconas::tensor {

/// The batch-statistics BatchNorm kernels over an NCHW buffer of n
/// samples × `channels` planes of `spatial` elements. Built with
/// HSCONAS_NATIVE_KERNELS and -ffp-contract=off, so every product and
/// every sum is rounded on its own, as in a plain scalar loop.

/// Batch mean and biased variance of channels [c0, c0 + count), as
/// doubles. Each channel's sum, and then its sum of squared deviations
/// from the mean, runs in serial (sample, pixel) order — the bits equal a
/// one-channel-at-a-time loop — while blocks of channels run as
/// independent add chains that overlap in the pipeline.
void batch_stats(const float* x, long n, long channels, long spatial, long c0,
                 long count, double* mean, double* var);

/// Batch-statistics BatchNorm and an activation, in place: for every
/// channel c with batch statistics (m, v) from batch_stats,
///   inv_std = float(1 / sqrt(v + eps))
///   x = act(gamma[c] · ((x − float(m)) · inv_std) + beta[c])
/// each step rounded on its own and `act` as epilogue_apply, so the result
/// is bit-identical to nn::BatchNorm2d's batch-statistics forward followed
/// by the activation module. gamma and beta hold at least `channels`
/// entries; a width-sliced buffer normalizes with their leading ones.
void batch_norm_act_inplace(float* x, long n, long channels, long spatial,
                            const float* gamma, const float* beta, double eps,
                            EpilogueAct act);

}  // namespace hsconas::tensor
