#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace hsconas::util {
class ByteWriter;
class ByteReader;
}  // namespace hsconas::util

namespace hsconas::nn {

/// Numeric type the eval-mode forward pass computes in. The seam is an
/// enum (not a bool) so future datapaths (bf16, int4) slot in without
/// another cross-layer refactor.
enum class InferenceDType : std::uint8_t { kF32 = 0, kI8 = 1 };

/// Process-wide opt-in switch for the int8 inference datapath, the dtype
/// analogue of set_inference_fusion(). Default kF32: training and every
/// existing eval path are bit-for-bit untouched. When kI8, Conv2d and
/// Linear eval-mode forwards route through the int8 GEMM for layers whose
/// QuantState is ready (calibrated); uncalibrated layers fall back to
/// fp32, so a partially calibrated model still computes correct results.
void set_inference_dtype(InferenceDType dtype);
InferenceDType inference_dtype();

/// Parse/print helpers for CLI flags and bench JSON ("f32" / "int8").
const char* inference_dtype_name(InferenceDType dtype);
InferenceDType parse_inference_dtype(const std::string& name);

/// Process-wide calibration-mode switch. While on, eval-mode Conv2d and
/// Linear forwards feed their input activations to their MinMaxObserver
/// (and still compute in fp32). Drive it via calibrate() rather than
/// directly.
void set_calibration_mode(bool on);
bool calibration_mode();

/// Running min/max over every batch fed through a layer during
/// calibration; yields the asymmetric per-tensor uint8 activation
/// quantizer. The range is widened to include 0 so that zero-padding
/// (im2col borders) and ReLU floors are exactly representable — the
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
/// symmetric int8 weights (stored in a DType::kI8 Tensor, pool-allocated
/// like any other), their scales, and the per-channel weight row sums
/// that carry the activation zero-point correction into the GEMM
/// epilogue's acc_bias slot.
struct QuantState {
  MinMaxObserver observer;
  tensor::QuantParams input;              ///< activation quantizer (u8)
  tensor::Tensor qweight;                 ///< DType::kI8, weight's shape
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

/// Quantize n floats with the asymmetric u8 quantizer:
/// out[i] = clamp(round(x[i] / p.scale) + p.zero_point, 0, 255).
void quantize_u8(const float* x, std::size_t n, tensor::QuantParams p,
                 std::uint8_t* out);

/// Inverse map for one code (tests, diagnostics).
float dequantize_u8(std::uint8_t q, tensor::QuantParams p);

/// Post-training calibration driver: arms the observers, feeds each batch
/// through `root` in eval mode, then freezes every layer that saw data.
/// Returns the number of layers frozen. Restores the previous
/// training/calibration/dtype state on exit; the forward passes always
/// run in fp32 regardless of the current inference dtype.
std::size_t calibrate(Module& root,
                      const std::vector<tensor::Tensor>& batches);

/// Generalized calibration driver for roots that are not Modules
/// themselves (core::Supernet wraps its modules behind its own visit):
/// `visit` must apply its argument to every module of the network and
/// `forward` must run one fp32 eval-mode batch through it. The caller is
/// responsible for putting the network in eval mode first; dtype and
/// calibration-mode state are saved/restored here exactly as calibrate()
/// does. Returns the number of layers frozen.
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
