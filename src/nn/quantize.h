#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/quantize_i8.h"
#include "tensor/tensor.h"

namespace hsconas::util {
class ByteWriter;
class ByteReader;
}  // namespace hsconas::util

namespace hsconas::nn {

/// Numeric type a served network computes in: the config/CLI/report
/// value that decides whether a network is calibrated for int8. The
/// forward itself derives its dtype per layer from QuantState::ready
/// (see QuantState). An enum, not a bool, so future datapaths (bf16,
/// int4) slot in without another cross-layer refactor.
enum class InferenceDType : std::uint8_t { kF32 = 0, kI8 = 1 };

/// Parse/print helpers for CLI flags and bench JSON ("f32" / "int8").
const char* inference_dtype_name(InferenceDType dtype);
InferenceDType parse_inference_dtype(const std::string& name);

/// Running min/max over every batch fed through a layer during
/// calibration; yields the asymmetric per-tensor uint8 activation
/// quantizer. The range is widened to include 0 so that zero-padding
/// (conv borders) and ReLU floors are exactly representable — the
/// zero_point maps to real 0.0 with no rounding error.
class MinMaxObserver {
 public:
  void observe(const float* x, std::size_t n);
  bool seen() const { return seen_; }
  void reset();

  /// Frozen activation quantizer: scale = (hi - lo) / 255 with
  /// lo = min(0, min_seen), hi = max(0, max_seen); zero_point = the u8
  /// code for real 0. Degenerate (unseen or constant-zero) ranges give
  /// the identity quantizer {1, 0}.
  tensor::QuantParams params() const;

 private:
  float min_ = 0.0f;
  float max_ = 0.0f;
  bool seen_ = false;
};

/// Post-training-quantization state attached to a Conv2d / Linear:
/// the input-activation observer plus, once frozen, everything the int8
/// forward needs — the per-tensor activation quantizer, per-out-channel
/// symmetric int8 weights (in the weight's layout, in a pool-allocated
/// buffer like a Tensor's), their scales, and the per-channel weight row
/// sums that carry the activation zero-point correction into the GEMM
/// epilogue's acc_bias slot.
///
/// This state is the layer's dtype: an eval-mode forward computes in
/// int8 exactly when `ready` (and the reduction depth fits the int32
/// accumulators), and feeds its fp32 input to the observer while
/// `observing`. Both are per layer, so networks in one process never
/// affect each other.
struct QuantState {
  MinMaxObserver observer;
  bool observing = false;  ///< armed by calibrate_with, disarmed on exit
  tensor::QuantParams input;              ///< activation quantizer (u8)
  /// Codes in [-127, 127], one per weight element, in its layout.
  std::vector<std::int8_t, tensor::PooledAllocator<std::int8_t>> qweight;
  std::vector<float> weight_scales;       ///< per out-channel, length rows
  std::vector<std::int32_t> weight_row_sums;  ///< Σ_k qweight[c][k]
  bool ready = false;

  /// Freeze from observed activations + the given weights: quantize the
  /// weights per out-channel (symmetric, |q| <= 127), record scales and
  /// row sums, snapshot the observer's activation params. `rows` is the
  /// out-channel count; weight must have rows * cols elements.
  void freeze(const tensor::Tensor& weight, long rows);

  /// Freeze from imported activation params + weight scales (checkpoint
  /// restore): requantizes the weights with the stored scales, which is
  /// deterministic given identical weights.
  void freeze_from(const tensor::Tensor& weight, long rows,
                   tensor::QuantParams act,
                   const std::vector<float>& scales);

  void reset();
};

/// Inverse map for one code (tests, diagnostics). The forward's own
/// crossings — tensor::quantize_u8 and the requantizing writeback — live
/// with the int8 kernels in tensor/quantize_i8.h.
float dequantize_u8(std::uint8_t q, tensor::QuantParams p);

/// Post-training calibration driver: resets every layer's QuantState,
/// arms its observer, feeds each batch through `root`, then freezes (and
/// disarms) every layer that saw data. Returns the number of layers
/// frozen. The batches run in `root`'s own eval flavour (kEval or
/// kEvalFused, which observe slightly different activations); a root in
/// train or score mode runs in kEval and gets its mode back on exit.
/// Reset layers are not ready, so the calibration forwards compute fp32.
std::size_t calibrate(Module& root,
                      const std::vector<tensor::Tensor>& batches);

/// Generalized calibration driver for roots that are not Modules
/// themselves (core::Supernet wraps its modules behind its own visit):
/// `visit` must apply its argument to every module of the network and
/// `forward` must run one eval-mode batch through it. The caller is
/// responsible for putting the network in an eval mode first. If a
/// forward throws, every observer is disarmed and no layer is ready.
/// Returns the number of layers frozen.
std::size_t calibrate_with(
    const ModuleVisitor& visit,
    const std::function<void(const tensor::Tensor&)>& forward,
    const std::vector<tensor::Tensor>& batches);

/// Serialize / restore every quantized layer's calibration table
/// (activation params + per-channel weight scales), in deterministic
/// visit order. The payload is container-agnostic bytes — the checkpoint
/// layer stores it as its own CRC-framed section. import_calibration
/// requantizes weights from the stored scales, so it must run after the
/// model's weights are restored; throws InvalidArgument on layer-count
/// or channel-count mismatch.
void export_calibration(Module& root, util::ByteWriter& w);
void import_calibration(Module& root, util::ByteReader& r);

}  // namespace hsconas::nn
