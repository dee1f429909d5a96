#pragma once

#include "nn/module.h"

namespace hsconas::nn {

/// ShuffleNetV2's concat + 2-group channel shuffle of two equal halves,
/// as one pass: output channel 2i is a's channel i and 2i + 1 is b's
/// channel i, for i < b.dim(1) — what shuffling concat(a, b) from
/// (group, i) to (i, group) order computes. `a` may be wider than b; only
/// its leading b.dim(1) channels are read, so a stride-1 block passes its
/// whole input, whose leading half is the left branch. Profiled as
/// `channel_shuffle` at the output's shape.
tensor::Tensor interleave_channels(const tensor::Tensor& a,
                                   const tensor::Tensor& b);

/// The inverse, for backward: a[:, i] = y[:, 2i] and b[:, i] =
/// y[:, 2i + 1]. Profiled as `channel_shuffle.bwd`.
void deinterleave_channels(const tensor::Tensor& y, tensor::Tensor& a,
                           tensor::Tensor& b);

/// Copy of channels [c0, c0 + count) of an NCHW tensor / concatenation
/// of two NCHW tensors along channels — free functions since they carry
/// no state.
tensor::Tensor slice_channels(const tensor::Tensor& x, long c0, long count);
tensor::Tensor concat_channels(const tensor::Tensor& left,
                               const tensor::Tensor& right);

}  // namespace hsconas::nn
