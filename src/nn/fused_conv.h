#pragma once

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"

namespace hsconas::nn {

/// One-pass y = act(bn(conv(x))) with eval-mode (running-statistic) BN:
/// folds the conv bias and BN into a per-channel affine
///   scale[c] = gamma[c] / sqrt(running_var[c] + eps)
///   shift[c] = beta[c] + scale[c] * (bias[c] - running_mean[c])
/// and applies it, plus the activation, inside the convolution GEMM's
/// C-writeback — conv + bias + BN + act in one memory pass over the
/// output. The scale/shift buffers are leased from the thread-local
/// Workspace, so the steady-state path allocates nothing.
///
/// In the gamma == 1, running_mean == 0, bias-free case the folded affine
/// is arithmetically identical to the composed modules (tolerance 0);
/// otherwise it differs only by float rounding of the refactored affine.
/// BN must be used in eval semantics: the caller is responsible for the
/// modules being in an eval mode. Neither module caches activations, so
/// backward() afterwards is a contract violation. Sequential calls this
/// for its conv→BN[→act] runs in Mode::kEvalFused.
tensor::Tensor fused_conv_bn_act(Conv2d& conv, BatchNorm2d& bn,
                                 tensor::EpilogueAct act,
                                 const tensor::Tensor& x);

}  // namespace hsconas::nn
