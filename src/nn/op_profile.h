#pragma once

#include "obs/profiler.h"
#include "tensor/tensor.h"

namespace hsconas::nn::detail {

/// Shared obs::OpInfo builders for the leaf-module profiler hooks. Leaf
/// modules (conv/linear/bn/act/pool/shuffle) open an obs::OpScope at
/// the top of forward/backward with one of these describe callbacks;
/// container modules (Sequential, choice blocks) deliberately carry no
/// hooks, so profiled scopes never nest and the per-op Workspace watermark
/// window stays unambiguous.
///
/// FLOP/byte figures are analytic per-call totals for the whole batch:
/// GEMM-backed ops count 2·MACs; elementwise ops count `flops_per_elem`
/// per input element with a read+write (8-byte) default traffic model.

/// Elementwise-style key from a tensor's NCHW (or lower-rank) shape.
inline obs::OpInfo elementwise_op_info(const char* op, const char* kind,
                                       const tensor::Tensor& x,
                                       double flops_per_elem,
                                       double bytes_per_elem = 8.0) {
  obs::OpInfo info;
  info.key.op = op;
  info.key.kind = kind;
  if (x.ndim() >= 1) info.key.batch = x.dim(0);
  if (x.ndim() >= 2) {
    info.key.in_ch = x.dim(1);
    info.key.out_ch = x.dim(1);
  }
  if (x.ndim() >= 4) {
    info.key.in_h = x.dim(2);
    info.key.in_w = x.dim(3);
  }
  const double numel = static_cast<double>(x.numel());
  info.flops = flops_per_elem * numel;
  info.bytes = bytes_per_elem * numel;
  return info;
}

}  // namespace hsconas::nn::detail
