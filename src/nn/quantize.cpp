#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/serial.h"

namespace hsconas::nn {

namespace {

constexpr std::uint32_t kCalibrationFormatVersion = 1;

}  // namespace

const char* inference_dtype_name(InferenceDType dtype) {
  switch (dtype) {
    case InferenceDType::kF32:
      return "f32";
    case InferenceDType::kI8:
      return "int8";
  }
  return "?";
}

InferenceDType parse_inference_dtype(const std::string& name) {
  if (name == "f32" || name == "fp32" || name == "float32") {
    return InferenceDType::kF32;
  }
  if (name == "int8" || name == "i8") return InferenceDType::kI8;
  throw InvalidArgument("unknown inference dtype '" + name +
                        "' (expected f32 or int8)");
}

void MinMaxObserver::observe(const float* x, std::size_t n) {
  if (n == 0) return;
  float lo = x[0], hi = x[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  if (seen_) {
    min_ = std::min(min_, lo);
    max_ = std::max(max_, hi);
  } else {
    min_ = lo;
    max_ = hi;
    seen_ = true;
  }
}

void MinMaxObserver::reset() {
  min_ = max_ = 0.0f;
  seen_ = false;
}

tensor::QuantParams MinMaxObserver::params() const {
  // Widen to include 0 so zero-padding and ReLU floors quantize exactly
  // (real 0.0 maps to the zero_point code with no rounding).
  const float lo = std::min(0.0f, min_);
  const float hi = std::max(0.0f, max_);
  tensor::QuantParams p;
  if (!seen_ || hi - lo <= 0.0f || !std::isfinite(hi - lo)) {
    return p;  // identity quantizer {1, 0}
  }
  p.scale = (hi - lo) / 255.0f;
  const float z = std::nearbyintf(-lo / p.scale);
  p.zero_point =
      std::clamp(static_cast<std::int32_t>(z), std::int32_t{0},
                 std::int32_t{255});
  return p;
}

void QuantState::freeze(const tensor::Tensor& weight, long rows) {
  tensor::QuantParams act = observer.params();
  HSCONAS_CHECK_MSG(rows > 0 && weight.numel() % rows == 0,
                    "QuantState::freeze: bad row count");
  const long cols = weight.numel() / rows;
  // Calibration-time (cold path) buffer that outlives this call as
  // QuantState::weight_scales, so a Workspace lease cannot back it.
  // hsconas-lint-allow(scratch-discipline)
  std::vector<float> scales(static_cast<std::size_t>(rows));
  const float* w = weight.data();
  for (long c = 0; c < rows; ++c) {
    float peak = 0.0f;
    for (long t = 0; t < cols; ++t) {
      peak = std::max(peak, std::abs(w[c * cols + t]));
    }
    // Symmetric per-channel: |q| <= 127 keeps -128 unused so the VNNI
    // accumulation bound (127 * 255 * k) holds. An all-zero channel gets
    // scale 1 (its codes are all 0 regardless).
    scales[static_cast<std::size_t>(c)] =
        peak > 0.0f ? peak / 127.0f : 1.0f;
  }
  freeze_from(weight, rows, act, scales);
}

void QuantState::freeze_from(const tensor::Tensor& weight, long rows,
                             tensor::QuantParams act,
                             // hsconas-lint-allow(scratch-discipline)
                             const std::vector<float>& scales) {
  HSCONAS_CHECK_MSG(rows > 0 && weight.numel() % rows == 0,
                    "QuantState::freeze_from: bad row count");
  if (scales.size() != static_cast<std::size_t>(rows)) {
    throw InvalidArgument("calibration table: weight-scale count " +
                          std::to_string(scales.size()) +
                          " != out-channel count " + std::to_string(rows));
  }
  const long cols = weight.numel() / rows;
  input = act;
  weight_scales = scales;
  qweight.assign(static_cast<std::size_t>(weight.numel()), 0);
  weight_row_sums.assign(static_cast<std::size_t>(rows), 0);
  const float* w = weight.data();
  std::int8_t* q = qweight.data();
  for (long c = 0; c < rows; ++c) {
    const float inv = 1.0f / weight_scales[static_cast<std::size_t>(c)];
    std::int32_t sum = 0;
    for (long t = 0; t < cols; ++t) {
      const float v = std::nearbyintf(w[c * cols + t] * inv);
      const std::int32_t code = std::clamp(
          static_cast<std::int32_t>(v), std::int32_t{-127}, std::int32_t{127});
      q[c * cols + t] = static_cast<std::int8_t>(code);
      sum += code;
    }
    weight_row_sums[static_cast<std::size_t>(c)] = sum;
  }
  ready = true;
}

void QuantState::reset() {
  observer.reset();
  observing = false;
  input = tensor::QuantParams{};
  qweight.clear();
  weight_scales.clear();
  weight_row_sums.clear();
  ready = false;
}

float dequantize_u8(std::uint8_t q, tensor::QuantParams p) {
  return p.scale *
         static_cast<float>(static_cast<std::int32_t>(q) - p.zero_point);
}

std::size_t calibrate_with(
    const ModuleVisitor& visit,
    const std::function<void(const tensor::Tensor&)>& forward,
    const std::vector<tensor::Tensor>& batches) {
  if (batches.empty()) {
    throw InvalidArgument("calibrate: no calibration batches");
  }
  static obs::Counter& runs = obs::counter("hsconas.quant.calibrations");
  visit([](Module& m) {
    if (QuantState* q = m.quant_state()) {
      q->reset();
      q->observing = true;
    }
  });
  try {
    for (const tensor::Tensor& batch : batches) forward(batch);
  } catch (...) {
    visit([](Module& m) {
      if (QuantState* q = m.quant_state()) q->observing = false;
    });
    throw;
  }

  std::size_t frozen = 0;
  visit([&](Module& m) {
    QuantState* q = m.quant_state();
    if (q == nullptr) return;
    q->observing = false;
    if (!q->observer.seen()) return;
    std::vector<Parameter*> params;
    m.collect_params(params);
    HSCONAS_CHECK_MSG(!params.empty(), "quantizable layer has no weight");
    // By convention the first collected parameter is the weight matrix
    // and its leading dimension is the out-channel axis.
    q->freeze(params[0]->value, params[0]->value.dim(0));
    ++frozen;
  });
  runs.add();
  return frozen;
}

std::size_t calibrate(Module& root,
                      const std::vector<tensor::Tensor>& batches) {
  const Mode was = root.mode();
  if (!is_eval(was)) root.set_mode(Mode::kEval);
  std::size_t frozen = 0;
  try {
    frozen = calibrate_with(
        [&root](const std::function<void(Module&)>& fn) { root.visit(fn); },
        [&root](const tensor::Tensor& batch) { root.forward(batch); },
        batches);
  } catch (...) {
    root.set_mode(was);
    throw;
  }
  root.set_mode(was);
  return frozen;
}

void export_calibration(Module& root, util::ByteWriter& w) {
  w.u32(kCalibrationFormatVersion);
  std::uint64_t count = 0;
  root.visit([&](Module& m) {
    if (m.quant_state() != nullptr) ++count;
  });
  w.u64(count);
  root.visit([&](Module& m) {
    QuantState* q = m.quant_state();
    if (q == nullptr) return;
    w.u8(q->ready ? 1 : 0);
    if (!q->ready) return;
    w.f32(q->input.scale);
    w.i32(q->input.zero_point);
    w.u64(q->weight_scales.size());
    w.vec_f32(q->weight_scales.data(), q->weight_scales.size());
  });
}

void import_calibration(Module& root, util::ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version != kCalibrationFormatVersion) {
    throw InvalidArgument("calibration table: unsupported format version " +
                          std::to_string(version));
  }
  std::uint64_t expect = 0;
  root.visit([&](Module& m) {
    if (m.quant_state() != nullptr) ++expect;
  });
  const std::uint64_t count = r.u64();
  if (count != expect) {
    throw InvalidArgument(
        "calibration table: layer count " + std::to_string(count) +
        " does not match this model (" + std::to_string(expect) + ")");
  }
  root.visit([&](Module& m) {
    QuantState* q = m.quant_state();
    if (q == nullptr) return;
    q->reset();
    if (r.u8() == 0) return;
    tensor::QuantParams act;
    act.scale = r.f32();
    act.zero_point = r.i32();
    if (!(act.scale > 0.0f) || !std::isfinite(act.scale) ||
        act.zero_point < 0 || act.zero_point > 255) {
      throw InvalidArgument("calibration table: corrupt activation params");
    }
    const std::uint64_t rows = r.u64();
    std::vector<Parameter*> params;
    m.collect_params(params);
    HSCONAS_CHECK_MSG(!params.empty(), "quantizable layer has no weight");
    tensor::Tensor& weight = params[0]->value;
    if (rows != static_cast<std::uint64_t>(weight.dim(0))) {
      throw InvalidArgument("calibration table: channel count mismatch");
    }
    // Checkpoint-restore (cold path) buffer handed to freeze_from.
    // hsconas-lint-allow(scratch-discipline)
    std::vector<float> scales(static_cast<std::size_t>(rows));
    r.vec_f32_into(scales.data(), scales.size());
    for (float s : scales) {
      if (!(s > 0.0f) || !std::isfinite(s)) {
        throw InvalidArgument("calibration table: corrupt weight scale");
      }
    }
    q->freeze_from(weight, weight.dim(0), act, scales);
  });
}

}  // namespace hsconas::nn
