// Contracts for the int8 GEMM (tensor/gemm_i8.h), run as a dense product
// through the 1×1 conv view it documents: exact agreement with a naive
// int32 reference at every shape class (small direct path, blocked path,
// ragged tile edges) once both go through the same requant_rows epilogue,
// requantize-epilogue parity with the scalar dequantization formula,
// int32-accumulator safety at the +-127 x 255 saturation extremes, the
// k-depth overflow guard, weight row strides past k, images read and
// written through their own strided slices, an empty batch, and
// bit-identical results at any thread count.
// Integer accumulation is exact, so every comparison here is memcmp/EQ —
// no tolerances.

#include "tensor/gemm_i8.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "tests/core/pool_guard.h"
#include "util/error.h"
#include "util/rng.h"

namespace hsconas::tensor {
namespace {

std::vector<std::int8_t> random_weights(std::size_t size, util::Rng& rng) {
  std::vector<std::int8_t> m(size);
  for (auto& v : m) v = static_cast<std::int8_t>(rng.randint(-127, 127));
  return m;
}

std::vector<std::uint8_t> random_activations(std::size_t size,
                                             util::Rng& rng) {
  std::vector<std::uint8_t> m(size);
  for (auto& v : m) v = static_cast<std::uint8_t>(rng.randint(0, 255));
  return m;
}

/// C (m×n, row-major) = ep(A (m×k) · B (k×n)) through the int8 GEMM's one
/// entry: B is the 1×1 view of one k-channel 1×n image, C its 1×n output
/// planes.
void gemm_dense(std::size_t m, std::size_t n, std::size_t k,
                const std::int8_t* a, const std::uint8_t* b, float* c,
                const QuantEpilogue& ep) {
  const ConvGeom geom{static_cast<long>(k), 1, static_cast<long>(n), 1, 1, 0};
  gemm_i8_requant(m, a, k, ConvInput<std::uint8_t>{b, k * n, geom, 1, 0},
                  ConvOutput{c, m * n}, ep);
}

/// The oracle: a naive int32 loop, then the same requant_rows writeback.
std::vector<std::int32_t> reference_acc(std::size_t m, std::size_t n,
                                        std::size_t k, const std::int8_t* a,
                                        const std::uint8_t* b) {
  std::vector<std::int32_t> c(m * n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t t = 0; t < k; ++t) {
      const std::int32_t av = a[i * k + t];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += av * static_cast<std::int32_t>(b[t * n + j]);
      }
    }
  }
  return c;
}

std::vector<float> reference_gemm(std::size_t m, std::size_t n, std::size_t k,
                                  const std::int8_t* a, const std::uint8_t* b,
                                  const QuantEpilogue& ep) {
  const std::vector<std::int32_t> acc = reference_acc(m, n, k, a, b);
  std::vector<float> c(m * n);
  requant_rows(ep, 0, m, n, acc.data(), n, c.data(), n);
  return c;
}

void expect_bitwise_equal(const std::vector<float>& want,
                          const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(float)))
      << what;
}

/// Random per-row scale, shift and zero-point correction.
struct Epilogue {
  std::vector<float> scale, shift;
  std::vector<std::int32_t> acc_bias;
  QuantEpilogue ep;

  Epilogue(std::size_t m, EpilogueAct act, util::Rng& rng)
      : scale(m), shift(m), acc_bias(m) {
    for (std::size_t i = 0; i < m; ++i) {
      scale[i] = static_cast<float>(rng.uniform(0.001, 0.05));
      shift[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      acc_bias[i] = static_cast<std::int32_t>(rng.randint(-5000, 5000));
    }
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.acc_bias = acc_bias.data();
    ep.act = act;
  }
};

TEST(GemmI8, MatchesReferenceAcrossShapeClasses) {
  util::Rng rng(21);
  // Shapes chosen to hit: the small direct path, ragged M (non-multiple
  // of MR=6), ragged N (non-multiple of NR=16), ragged K (non-multiple
  // of the 4-wide VNNI quad), single row/column, and the blocked path
  // crossing the NC=512 stripe boundary. The identity epilogue writes
  // float(acc), exact at these magnitudes.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {3, 5, 7},    {6, 16, 4},   {7, 17, 5},
                {13, 33, 9}, {24, 64, 96}, {50, 530, 37}, {64, 64, 64}};
  for (const auto& s : shapes) {
    const auto a = random_weights(s.m * s.k, rng);
    const auto b = random_activations(s.k * s.n, rng);
    const auto acc = reference_acc(s.m, s.n, s.k, a.data(), b.data());
    std::vector<float> got(s.m * s.n, -1.0f);
    gemm_dense(s.m, s.n, s.k, a.data(), b.data(), got.data(), {});
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_EQ(static_cast<float>(acc[i]), got[i])
          << "shape " << s.m << "x" << s.n << "x" << s.k << " element " << i;
    }
  }
}

TEST(GemmI8, OverwritesStaleOutput) {
  util::Rng rng(22);
  const std::size_t m = 9, n = 20, k = 12;
  const auto a = random_weights(m * k, rng);
  const auto b = random_activations(k * n, rng);
  const Epilogue e(m, EpilogueAct::kNone, rng);
  std::vector<float> got(m * n, 1e30f);  // poisoned, not zero
  gemm_dense(m, n, k, a.data(), b.data(), got.data(), e.ep);
  expect_bitwise_equal(reference_gemm(m, n, k, a.data(), b.data(), e.ep), got,
                       "stale output");
}

TEST(GemmI8, SaturationExtremesStayExact) {
  // Worst-case magnitudes: every weight at -127/+127 and every activation
  // at 255 with k at the documented bound. 127 * 255 * 65536 < 2^31, so
  // the int32 accumulators must not wrap; an implementation that
  // saturates intermediate pairs (e.g. 16-bit maddubs without widening)
  // fails this immediately. The acc_bias cancels most of the sum, so the
  // float written back is exact: a wrapped or saturated accumulator
  // lands far from it.
  const std::size_t m = 2, n = 16, k = kGemmI8MaxK;
  std::vector<std::int8_t> a(m * k);
  for (std::size_t t = 0; t < k; ++t) {
    a[t] = 127;
    a[k + t] = -127;
  }
  std::vector<std::uint8_t> b(k * n, 255);
  const std::int32_t want = 127 * 255 * static_cast<std::int32_t>(k);
  const std::int32_t acc_bias[2] = {-(want - 1000), want - 1000};
  QuantEpilogue ep;
  ep.acc_bias = acc_bias;
  std::vector<float> got(m * n, 0.0f);
  gemm_dense(m, n, k, a.data(), b.data(), got.data(), ep);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(1000.0f, got[j]);
    ASSERT_EQ(-1000.0f, got[n + j]);
  }
}

TEST(GemmI8, RejectsOverflowUnsafeDepth) {
  std::vector<std::int8_t> a(kGemmI8MaxK + 1);
  std::vector<std::uint8_t> b(kGemmI8MaxK + 1);
  float c = 0.0f;
  EXPECT_THROW(gemm_dense(1, 1, kGemmI8MaxK + 1, a.data(), b.data(), &c, {}),
               InvalidArgument);
}

TEST(GemmI8, ZeroDepthAppliesEpilogueToZeroAccumulator) {
  std::vector<float> raw(4, 99.0f);
  gemm_dense(2, 2, 0, nullptr, nullptr, raw.data(), {});
  EXPECT_EQ(std::vector<float>(4, 0.0f), raw);

  const float shift[2] = {1.5f, -2.0f};
  QuantEpilogue ep;
  ep.shift = shift;
  ep.act = EpilogueAct::kReLU;
  std::vector<float> cf(4, 99.0f);
  gemm_dense(2, 2, 0, nullptr, nullptr, cf.data(), ep);
  EXPECT_EQ((std::vector<float>{1.5f, 1.5f, 0.0f, 0.0f}), cf);
}

TEST(GemmI8Requant, MatchesScalarDequantFormula) {
  util::Rng rng(23);
  const std::size_t m = 11, n = 29, k = 18;
  const auto a = random_weights(m * k, rng);
  const auto b = random_activations(k * n, rng);
  const auto acc = reference_acc(m, n, k, a.data(), b.data());
  for (const EpilogueAct act :
       {EpilogueAct::kNone, EpilogueAct::kReLU, EpilogueAct::kHSwish}) {
    const Epilogue e(m, act, rng);
    std::vector<float> got(m * n, 99.0f);
    gemm_dense(m, n, k, a.data(), b.data(), got.data(), e.ep);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const float want = epilogue_apply(
            act, epilogue_affine(
                     e.scale[i],
                     static_cast<float>(acc[i * n + j] + e.acc_bias[i]),
                     e.shift[i]));
        ASSERT_EQ(want, got[i * n + j]) << "act=" << static_cast<int>(act)
                                        << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(GemmI8Requant, NullEpilogueFieldsDefaultToIdentity) {
  util::Rng rng(24);
  const std::size_t m = 4, n = 8, k = 6;
  const auto a = random_weights(m * k, rng);
  const auto b = random_activations(k * n, rng);
  const auto acc = reference_acc(m, n, k, a.data(), b.data());
  std::vector<float> got(m * n, 0.0f);
  gemm_dense(m, n, k, a.data(), b.data(), got.data(), QuantEpilogue{});
  for (std::size_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(static_cast<float>(acc[i]), got[i]);
  }
}

TEST(GemmI8, WeightRowStrideLargerThanDepthIgnoresTheGap) {
  // A width-sliced layer reads the first k columns of wider weight rows:
  // the lda - k codes past each row are never part of the product.
  util::Rng rng(26);
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{5, 7, 9}, {13, 33, 9}, {40, 530, 70}};
  for (const auto& s : shapes) {
    const std::size_t lda = s.k + 5;
    const auto a = random_weights(s.m * s.k, rng);
    std::vector<std::int8_t> wide(s.m * lda, 127);  // the gap is poisoned
    for (std::size_t i = 0; i < s.m; ++i) {
      std::memcpy(wide.data() + i * lda, a.data() + i * s.k, s.k);
    }
    const auto b = random_activations(s.k * s.n, rng);
    const Epilogue e(s.m, EpilogueAct::kHSwish, rng);
    const ConvGeom geom{static_cast<long>(s.k), 1, static_cast<long>(s.n),
                        1, 1, 0};
    std::vector<float> got(s.m * s.n, -1.0f);
    gemm_i8_requant(s.m, wide.data(), lda,
                    ConvInput<std::uint8_t>{b.data(), s.k * s.n, geom, 1, 0},
                    ConvOutput{got.data(), s.m * s.n}, e.ep);
    expect_bitwise_equal(
        reference_gemm(s.m, s.n, s.k, a.data(), b.data(), e.ep), got,
        "lda > k");
  }
}

TEST(GemmI8, ImagesReadAndWriteOnlyTheirOwnStridedSlices) {
  // N images of k channels of 1×n, as nn::Linear batches them, with gaps
  // between the images on both sides: each output image is its own
  // product, and the output gaps keep their bytes.
  util::Rng rng(27);
  const std::size_t m = 7, n = 3, k = 20, images = 5;
  const std::size_t in_stride = k * n + 3, out_stride = m * n + 4;
  const auto a = random_weights(m * k, rng);
  const auto codes = random_activations(images * in_stride, rng);
  const Epilogue e(m, EpilogueAct::kReLU, rng);
  const ConvGeom geom{static_cast<long>(k), 1, static_cast<long>(n), 1, 1, 0};
  std::vector<float> got(images * out_stride, 1e30f);
  gemm_i8_requant(m, a.data(), k,
                  ConvInput<std::uint8_t>{codes.data(), in_stride, geom,
                                          images, 0},
                  ConvOutput{got.data(), out_stride}, e.ep);
  for (std::size_t s = 0; s < images; ++s) {
    const std::vector<float> want =
        reference_gemm(m, n, k, a.data(), codes.data() + s * in_stride, e.ep);
    const std::vector<float> image(got.begin() + s * out_stride,
                                   got.begin() + s * out_stride + m * n);
    expect_bitwise_equal(want, image, "strided image");
    for (std::size_t i = m * n; i < out_stride; ++i) {
      ASSERT_EQ(1e30f, got[s * out_stride + i])
          << "image " << s << " wrote into the gap at " << i;
    }
  }
}

TEST(GemmI8, EmptyBatchWritesNothing) {
  util::Rng rng(28);
  const std::size_t m = 4, k = 6;
  const auto a = random_weights(m * k, rng);
  const ConvGeom geom{static_cast<long>(k), 1, 1, 1, 1, 0};
  float sentinel = 7.0f;
  gemm_i8_requant(m, a.data(), k,
                  ConvInput<std::uint8_t>{nullptr, k, geom, 0, 0},
                  ConvOutput{&sentinel, m}, QuantEpilogue{});
  EXPECT_EQ(7.0f, sentinel);
}

// Big enough to take the parallel blocked path and cross the NC=512
// stripe boundary, so the per-thread A panels and shared B stripes are
// genuinely exercised.
constexpr std::size_t kM = 100, kN = 530, kK = 300;

TEST(GemmI8Threads, BitIdenticalAcrossThreadCounts) {
  util::Rng rng(25);
  const auto a = random_weights(kM * kK, rng);
  const auto b = random_activations(kK * kN, rng);
  const Epilogue relu(kM, EpilogueAct::kReLU, rng);
  const QuantEpilogue raw{};  // float(acc): exact at these magnitudes

  std::vector<float> raw1(kM * kN, 0.0f), cf1(kM * kN, 0.0f);
  {
    testutil::PoolGuard guard(1);
    gemm_dense(kM, kN, kK, a.data(), b.data(), raw1.data(), raw);
    gemm_dense(kM, kN, kK, a.data(), b.data(), cf1.data(), relu.ep);
  }
  expect_bitwise_equal(reference_gemm(kM, kN, kK, a.data(), b.data(), raw),
                       raw1, "raw accumulators, 1 thread");
  expect_bitwise_equal(
      reference_gemm(kM, kN, kK, a.data(), b.data(), relu.ep), cf1,
      "requantized, 1 thread");
  for (const std::size_t threads : {2u, 8u}) {
    testutil::PoolGuard guard(threads);
    std::vector<float> rawt(kM * kN, 0.0f), cf(kM * kN, 0.0f);
    gemm_dense(kM, kN, kK, a.data(), b.data(), rawt.data(), raw);
    gemm_dense(kM, kN, kK, a.data(), b.data(), cf.data(), relu.ep);
    ASSERT_EQ(0, std::memcmp(raw1.data(), rawt.data(),
                             rawt.size() * sizeof(float)))
        << "raw accumulators: thread count " << threads
        << " changed the result";
    ASSERT_EQ(0, std::memcmp(cf1.data(), cf.data(), cf.size() * sizeof(float)))
        << "requant path: thread count " << threads << " changed the result";
  }
}

}  // namespace
}  // namespace hsconas::tensor
