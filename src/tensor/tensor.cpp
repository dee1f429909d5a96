#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hsconas::tensor {

long shape_numel(std::span<const long> shape) {
  long n = 1;
  for (long d : shape) {
    if (d < 0) throw InvalidArgument("negative dimension in tensor shape");
    n *= d;
  }
  return n;
}

Tensor::Tensor(ShapeVec shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor Tensor::for_overwrite(ShapeVec shape) {
  Tensor t;
  t.data_.resize(static_cast<std::size_t>(shape_numel(shape)));
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::full(ShapeVec shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(ShapeVec shape, float lo, float hi,
                       util::Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::normal(ShapeVec shape, float mean, float stddev,
                      util::Rng& rng) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

long Tensor::dim(std::size_t i) const {
  HSCONAS_CHECK_MSG(i < shape_.size(), "Tensor::dim index out of range");
  return shape_[i];
}

float& Tensor::at(long i) {
  HSCONAS_CHECK(ndim() == 1 && i >= 0 && i < shape_[0]);
  return data_[static_cast<std::size_t>(i)];
}

float& Tensor::at(long i, long j) {
  HSCONAS_CHECK(ndim() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1]);
  return data_[static_cast<std::size_t>(i * shape_[1] + j)];
}

float& Tensor::at(long i, long j, long k) {
  HSCONAS_CHECK(ndim() == 3 && i >= 0 && i < shape_[0] && j >= 0 &&
                j < shape_[1] && k >= 0 && k < shape_[2]);
  return data_[static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float& Tensor::at(long n, long c, long h, long w) {
  HSCONAS_CHECK(ndim() == 4 && n >= 0 && n < shape_[0] && c >= 0 &&
                c < shape_[1] && h >= 0 && h < shape_[2] && w >= 0 &&
                w < shape_[3]);
  return data_[static_cast<std::size_t>(
      ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
}

Tensor Tensor::reshaped(ShapeVec shape) const {
  if (shape_numel(shape) != numel()) {
    throw InvalidArgument("reshape: numel mismatch " + shape_str());
  }
  Tensor t = *this;
  t.shape_ = std::move(shape);
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
  if (shape_ != other.shape_) {
    throw InvalidArgument(std::string(op) + ": shape mismatch " +
                          shape_str() + " vs " + other.shape_str());
  }
}

void Tensor::add_(const Tensor& other) {
  check_same_shape(other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::sub_(const Tensor& other) {
  check_same_shape(other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Tensor::mul_(float s) {
  for (float& v : data_) v *= s;
}

void Tensor::axpy_(float alpha, const Tensor& x) {
  check_same_shape(x, "axpy_");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * x.data_[i];
  }
}

void Tensor::hadamard_(const Tensor& other) {
  check_same_shape(other, "hadamard_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f
                       : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

float Tensor::l2_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

bool Tensor::all_finite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ')';
  return os.str();
}

}  // namespace hsconas::tensor
