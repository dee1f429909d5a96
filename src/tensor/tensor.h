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

/// Shape storage. Pooled like the element buffer so that constructing a
/// Tensor touches the heap zero times in steady state.
using ShapeVec = std::vector<long, PooledAllocator<long>>;

/// Shapes compare against plain std::vector<long> literals (tests, call
/// sites predating the pooled allocator). C++20 synthesizes the swapped
/// and != forms.
inline bool operator==(const ShapeVec& a, const std::vector<long>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Dense row-major float32 tensor with up to 4 logical dimensions. (The
/// int8 inference path keeps its 8-bit weights in nn::QuantState and its
/// activation codes in Workspace scratch, not in Tensors.)
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

  /// Construct with the given shape and unwritten (indeterminate) storage,
  /// for an output the caller writes in full before anything reads it.
  static Tensor for_overwrite(ShapeVec shape);
  static Tensor for_overwrite(std::initializer_list<long> shape) {
    return for_overwrite(ShapeVec(shape));
  }

  // Every factory accepts the pooled ShapeVec (the type shape() returns),
  // a plain std::vector<long>, or a braced list; the last two delegate.
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

  const ShapeVec& shape() const { return shape_; }
  long dim(std::size_t i) const;
  std::size_t ndim() const { return shape_.size(); }
  long numel() const { return static_cast<long>(data_.size()); }
  bool empty() const { return numel() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

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
};

/// numel of a shape vector; validates non-negative dims.
long shape_numel(std::span<const long> shape);

}  // namespace hsconas::tensor
