#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/workspace.h"
#include "util/error.h"
#include "util/rng.h"

namespace hsconas::tensor {

/// Element type of a Tensor's storage. kF32 is the training/default path;
/// the 8-bit types carry quantized inference data (kI8: signed symmetric,
/// used for weights; kU8: unsigned asymmetric with a zero point, used for
/// activations). The enum is the seam future widths (bf16, int4) extend.
enum class DType : std::uint8_t { kF32 = 0, kI8 = 1, kU8 = 2 };

/// "f32" / "i8" / "u8" — the spelling used in bench records and reports.
const char* dtype_name(DType dtype);

/// Storage bytes per element.
std::size_t dtype_bytes(DType dtype);

/// Affine quantization parameters attached to an 8-bit tensor:
/// real_value = scale * (stored_value - zero_point).
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;
};

/// Shape storage. Pooled like the element buffer so that constructing a
/// Tensor touches the heap zero times in steady state.
using ShapeVec = std::vector<long, PooledAllocator<long>>;

/// Shapes compare against plain std::vector<long> literals (tests, call
/// sites predating the pooled allocator). C++20 synthesizes the swapped
/// and != forms.
inline bool operator==(const ShapeVec& a, const std::vector<long>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Dense row-major tensor with up to 4 logical dimensions. Storage is
/// float32 by default; the quantized() factory produces 8-bit tensors
/// (dtype() kI8/kU8 with QuantParams) for the int8 inference path — those
/// are data containers only, the float accessors and arithmetic below
/// address fp32 tensors.
///
/// Convention throughout the NN substrate: activations are NCHW
/// (batch, channels, height, width); convolution weights are OIHW
/// (out_channels, in_channels/groups, kh, kw); linear weights are (out, in).
///
/// Tensor is a value type with deep-copy semantics — the networks here are
/// small enough that simplicity beats COW cleverness, and deep copies make
/// the weight-sharing semantics of the supernet explicit (the supernet holds
/// the single canonical copy; subnets *reference* it through the module
/// graph rather than copying tensors).
class Tensor {
 public:
  Tensor() = default;

  /// Construct zero-filled with the given shape.
  explicit Tensor(ShapeVec shape);
  explicit Tensor(const std::vector<long>& shape)
      : Tensor(ShapeVec(shape.begin(), shape.end())) {}
  Tensor(std::initializer_list<long> shape) : Tensor(ShapeVec(shape)) {}

  // Every factory accepts the pooled ShapeVec (the type shape() returns),
  // a plain std::vector<long>, or a braced list; the last two delegate.
  static Tensor zeros(ShapeVec shape) { return Tensor(std::move(shape)); }
  static Tensor zeros(const std::vector<long>& shape) { return Tensor(shape); }
  static Tensor zeros(std::initializer_list<long> shape) {
    return Tensor(ShapeVec(shape));
  }
  static Tensor full(ShapeVec shape, float value);
  static Tensor full(const std::vector<long>& shape, float value) {
    return full(ShapeVec(shape.begin(), shape.end()), value);
  }
  static Tensor full(std::initializer_list<long> shape, float value) {
    return full(ShapeVec(shape), value);
  }
  static Tensor ones(ShapeVec shape) { return full(std::move(shape), 1.0f); }
  static Tensor ones(const std::vector<long>& shape) {
    return ones(ShapeVec(shape.begin(), shape.end()));
  }
  static Tensor ones(std::initializer_list<long> shape) {
    return ones(ShapeVec(shape));
  }

  /// I.i.d. uniform in [lo, hi).
  static Tensor uniform(ShapeVec shape, float lo, float hi, util::Rng& rng);
  static Tensor uniform(const std::vector<long>& shape, float lo, float hi,
                        util::Rng& rng) {
    return uniform(ShapeVec(shape.begin(), shape.end()), lo, hi, rng);
  }
  static Tensor uniform(std::initializer_list<long> shape, float lo, float hi,
                        util::Rng& rng) {
    return uniform(ShapeVec(shape), lo, hi, rng);
  }
  /// I.i.d. normal(mean, stddev).
  static Tensor normal(ShapeVec shape, float mean, float stddev,
                       util::Rng& rng);
  static Tensor normal(const std::vector<long>& shape, float mean,
                       float stddev, util::Rng& rng) {
    return normal(ShapeVec(shape.begin(), shape.end()), mean, stddev, rng);
  }
  static Tensor normal(std::initializer_list<long> shape, float mean,
                       float stddev, util::Rng& rng) {
    return normal(ShapeVec(shape), mean, stddev, rng);
  }

  /// Zero-filled 8-bit quantized tensor (dtype kI8 or kU8) with the given
  /// affine parameters. Storage is pooled exactly like the fp32 buffer.
  static Tensor quantized(ShapeVec shape, DType dtype, QuantParams params);
  static Tensor quantized(const std::vector<long>& shape, DType dtype,
                          QuantParams params) {
    return quantized(ShapeVec(shape.begin(), shape.end()), dtype, params);
  }
  static Tensor quantized(std::initializer_list<long> shape, DType dtype,
                          QuantParams params) {
    return quantized(ShapeVec(shape), dtype, params);
  }

  const ShapeVec& shape() const { return shape_; }
  long dim(std::size_t i) const;
  std::size_t ndim() const { return shape_.size(); }
  long numel() const {
    return dtype_ == DType::kF32 ? static_cast<long>(data_.size())
                                 : static_cast<long>(qdata_.size());
  }
  bool empty() const { return numel() == 0; }

  DType dtype() const { return dtype_; }
  bool is_quantized() const { return dtype_ != DType::kF32; }
  const QuantParams& quant() const { return quant_; }
  void set_quant(QuantParams params) { quant_ = params; }

  // The float accessors below address kF32 storage only; an 8-bit tensor's
  // float buffer is empty (data() == nullptr, flat() is an empty span).
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  /// 8-bit storage accessors. Checked: the tensor's dtype must match the
  /// requested signedness.
  std::int8_t* i8_data();
  const std::int8_t* i8_data() const {
    return const_cast<Tensor*>(this)->i8_data();
  }
  std::uint8_t* u8_data();
  const std::uint8_t* u8_data() const {
    return const_cast<Tensor*>(this)->u8_data();
  }

  float& at(long i);
  float& at(long i, long j);
  float& at(long i, long j, long k);
  float& at(long n, long c, long h, long w);
  float at(long i) const { return const_cast<Tensor*>(this)->at(i); }
  float at(long i, long j) const { return const_cast<Tensor*>(this)->at(i, j); }
  float at(long i, long j, long k) const {
    return const_cast<Tensor*>(this)->at(i, j, k);
  }
  float at(long n, long c, long h, long w) const {
    return const_cast<Tensor*>(this)->at(n, c, h, w);
  }

  /// Reinterpret the buffer with a new shape of equal numel.
  Tensor reshaped(ShapeVec shape) const;
  Tensor reshaped(const std::vector<long>& shape) const {
    return reshaped(ShapeVec(shape.begin(), shape.end()));
  }
  Tensor reshaped(std::initializer_list<long> shape) const {
    return reshaped(ShapeVec(shape));
  }

  // ---- in-place arithmetic -------------------------------------------------
  void fill(float v);
  void zero() { fill(0.0f); }
  void add_(const Tensor& other);            ///< this += other
  void sub_(const Tensor& other);            ///< this -= other
  void mul_(float s);                        ///< this *= s
  void axpy_(float alpha, const Tensor& x);  ///< this += alpha * x
  void hadamard_(const Tensor& other);       ///< this *= other (elementwise)

  // ---- reductions ----------------------------------------------------------
  float sum() const;
  float mean() const;
  float abs_max() const;
  float l2_norm() const;

  /// True iff every element is finite (NaN/Inf detection for training).
  bool all_finite() const;

  std::string shape_str() const;

  /// Throws InvalidArgument unless shapes match exactly.
  void check_same_shape(const Tensor& other, const char* op) const;

 private:
  ShapeVec shape_;
  std::vector<float, PooledAllocator<float>> data_;
  /// 8-bit storage (kI8/kU8); kU8 reads the same bytes through u8_data().
  /// Exactly one of data_/qdata_ is populated, selected by dtype_.
  std::vector<std::int8_t, PooledAllocator<std::int8_t>> qdata_;
  DType dtype_ = DType::kF32;
  QuantParams quant_;
};

/// numel of a shape vector; validates non-negative dims.
long shape_numel(std::span<const long> shape);

}  // namespace hsconas::tensor
