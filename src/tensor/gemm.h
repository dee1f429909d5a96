#pragma once

#include <cstddef>

#include "tensor/im2col.h"

namespace hsconas::tensor {

/// Activation applied by a fused GEMM epilogue. The scalar formulas are
/// shared with nn/activation via epilogue_apply() below, so the fused
/// conv→bn→act path is bit-identical to the composed modules.
enum class EpilogueAct { kNone, kReLU, kHSwish };

/// Scalar epilogue activation. This is the single definition of the ReLU
/// and h-swish forward math: nn::ReLU / nn::HSwish forward and the fused
/// microkernel writeback all call it, so "fused vs composed" parity is a
/// property of the code, not of two formulas happening to agree.
inline float epilogue_apply(EpilogueAct act, float v) {
  switch (act) {
    case EpilogueAct::kReLU:
      return v > 0.0f ? v : 0.0f;
    case EpilogueAct::kHSwish: {
      float r6 = v + 3.0f;
      r6 = r6 < 0.0f ? 0.0f : (r6 > 6.0f ? 6.0f : r6);
      return v * r6 / 6.0f;
    }
    case EpilogueAct::kNone:
      break;
  }
  return v;
}

/// scale*v + shift with both roundings materialized. The epilogue TUs are
/// compiled with -march=native, where the compiler would contract this to
/// one FMA; module code (batchnorm, activation) built with baseline flags
/// rounds the multiply and the add separately. The barrier pins the
/// two-rounding form in the scalar paths (the small GEMM fallbacks), so
/// fused-vs-composed parity is exact. The vector writebacks — int8
/// requant_rows (tensor/quantize_i8.cpp) and fp32 epilogue_rows below —
/// round the same two steps without the barrier, which would keep their
/// rows from vectorizing: their TUs are built with -ffp-contract=off
/// instead.
inline float epilogue_affine(float scale, float v, float shift) {
  float scaled = scale * v;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  asm("" : "+x"(scaled));  // opaque to the optimizer: no FMA contraction
#elif defined(__GNUC__) && defined(__aarch64__)
  asm("" : "+w"(scaled));
#endif
  return scaled + shift;
}

/// Per-output-row affine + activation fused into the GEMM C-writeback:
///   C[i, j] = act(scale[i] * acc[i, j] + shift[i])
/// where acc is the full alpha·A·B accumulation for that element. Row i is
/// the GEMM m axis — for a conv lowered as (out_channels × patches) it is
/// the output channel, which is exactly the axis bias and inference-mode
/// BatchNorm broadcast over. Null scale means 1, null shift means 0.
struct GemmEpilogue {
  const float* scale = nullptr;  ///< length m, or null for identity
  const float* shift = nullptr;  ///< length m, or null for zero
  EpilogueAct act = EpilogueAct::kNone;
};

/// The fp32 fused writeback: for r < rows and j < n,
///   out[r·ld_out + j] = act(scale[row0 + r] · v[r·ld_v + j] + shift[row0 + r])
/// with the product and the sum rounded separately, exactly as
/// epilogue_affine does, each row as one vector pass (its TU,
/// tensor/depthwise.cpp, is built with -ffp-contract=off). The GEMM tile
/// writeback and the fp32 depthwise kernel both write through it.
void epilogue_rows(const GemmEpilogue& ep, std::size_t row0, std::size_t rows,
                   std::size_t n, const float* v, std::size_t ld_v, float* out,
                   std::size_t ld_out);

/// C (m×n) = alpha * A (m×k) · B (k×n) + beta * C.
/// Row-major, contiguous. All variants share one packed, register-blocked
/// implementation: A and B blocks are copied into cache-aligned MR×k /
/// k×NR panels (transposing on the fly for the ᵀ variants), a branch-free
/// 6×16 microkernel accumulates in registers, and the M panel space is
/// distributed over the global thread pool when the problem is large
/// enough to amortize the dispatch. Packed B blocks are shared read-only
/// across workers; each worker packs its own A panels from its thread's
/// Workspace. The k-loop accumulation order is fixed and the task
/// decomposition is MR-aligned, so results are bit-identical at any
/// thread count. See docs/PERFORMANCE.md.
void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// C (m×n) = alpha * Aᵀ (A is k×m, row stride lda; 0: m) · B (k×n) +
/// beta * C. Used in the convolution backward pass for input-column
/// gradients, where A is the leading window of a width-sliced layer's
/// weights.
void gemm_at_b(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c,
               std::size_t lda = 0);

/// C (m×n) = alpha * A (m×k) · Bᵀ (B is n×k) + beta * C.
/// Used in the convolution backward pass for weight gradients. C may be
/// the leading m×n window, row stride ldc (0: n), of a rows × ldc matrix
/// (rows 0: m) — a width-sliced layer's weight gradient. The
/// small-vs-blocked choice, which fixes how each element's k sum is
/// grouped, is made for the whole rows × ldc product, so every window
/// element gets the bits that product would give it.
void gemm_a_bt(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, const float* b, float beta, float* c,
               std::size_t ldc = 0, std::size_t rows = 0);

/// C (m×n) = ep(alpha * A (m×k) · B (k×n)): the beta == 0 product with the
/// per-row epilogue applied during the final K block's C-writeback, so
/// conv + bias + BatchNorm + activation is one pass over C instead of
/// four. Bit-identical to gemm(..., beta=0, ...) followed by an
/// elementwise act(scale[i]*c+shift[i]) sweep, at every thread count.
void gemm_fused(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float* c,
                const GemmEpilogue& ep);

/// Implicit-GEMM convolution: y = A (m×k, row stride lda >= k) · B, where
/// B is the conv view `b` (k = b.k(), n = b.n()) and C is the NCHW output
/// `c`; a width-sliced conv's A is the leading window of its weights. The
/// packers gather conv windows straight from the input into their panels
/// and the writeback stores each tile straight into y, overwriting it, so
/// no column matrix or transposed copy exists. Same K order,
/// small-vs-blocked dispatch and microkernel as gemm(m, n, k, 1, a, im2col
/// columns, 0, C): bit-identical to it at every thread count.
void gemm(std::size_t m, const float* a, std::size_t lda,
          const ConvInput<float>& b, const ConvOutput& c);

/// The fused twin: y = ep(A · B), bit-identical to gemm_fused above over
/// the im2col columns.
void gemm_fused(std::size_t m, const float* a, std::size_t lda,
                const ConvInput<float>& b, const ConvOutput& c,
                const GemmEpilogue& ep);

}  // namespace hsconas::tensor
