#include "tensor/im2col.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace hsconas::tensor {
namespace {

TEST(ConvGeom, OutputSizes) {
  ConvGeom g{3, 8, 8, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  ConvGeom s2{3, 8, 8, 3, 2, 1};
  EXPECT_EQ(s2.out_h(), 4);
  ConvGeom k1{3, 7, 7, 1, 1, 0};
  EXPECT_EQ(k1.out_h(), 7);
  ConvGeom k5{3, 8, 8, 5, 1, 2};
  EXPECT_EQ(k5.out_h(), 8);
}

TEST(Im2col, IdentityFor1x1Kernel) {
  const ConvGeom g{2, 3, 3, 1, 1, 0};
  std::vector<float> img(2 * 9);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(2 * 9);
  im2col(img.data(), g, cols.data());
  EXPECT_EQ(cols, img);  // 1×1/stride 1 im2col is the identity layout
}

TEST(Im2col, PaddingProducesZeros) {
  const ConvGeom g{1, 2, 2, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> cols(9 * 4);
  im2col(img.data(), g, cols.data());
  // Row 0 = kernel position (0,0): output (0,0) reads input (-1,-1) = 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Kernel center (1,1) row index 4: copies the image unchanged.
  EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
  EXPECT_EQ(cols[4 * 4 + 3], 4.0f);
}

TEST(Im2col, StrideSkipsPositions) {
  const ConvGeom g{1, 4, 4, 1, 2, 0};
  std::vector<float> img(16);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(4);
  im2col(img.data(), g, cols.data());
  EXPECT_EQ(cols, (std::vector<float>{0, 2, 8, 10}));
}

TEST(Col2im, RoundTripAccumulatesCoverageCounts) {
  // col2im(im2col(ones)) accumulates, per pixel, the number of kernel
  // windows covering it — an exact combinatorial identity worth pinning.
  const ConvGeom g{1, 3, 3, 3, 1, 1};
  std::vector<float> img(9, 1.0f);
  std::vector<float> cols(9 * 9);
  im2col(img.data(), g, cols.data());
  std::vector<float> back(9, 0.0f);
  col2im(cols.data(), g, back.data());
  // Center pixel covered by all 9 windows; corners by 4; edges by 6.
  EXPECT_EQ(back[4], 9.0f);
  EXPECT_EQ(back[0], 4.0f);
  EXPECT_EQ(back[1], 6.0f);
}

TEST(Col2im, AdjointProperty) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — im2col/col2im must
  // be exact adjoints for convolution backward to be correct.
  util::Rng rng(11);
  const ConvGeom g{3, 5, 4, 3, 2, 1};
  const long cols_elems = g.in_channels * 9 * g.out_h() * g.out_w();
  std::vector<float> x(static_cast<std::size_t>(g.in_channels * g.in_h * g.in_w));
  std::vector<float> y(static_cast<std::size_t>(cols_elems));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> ix(y.size());
  im2col(x.data(), g, ix.data());
  std::vector<float> cy(x.size(), 0.0f);
  col2im(y.data(), g, cy.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(ix[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * cy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, RowStrideWritesOneSampleOfABatchMatrix) {
  // With a row stride, im2col fills one sample's columns of a batch-wide
  // matrix (rows of ld floats) and leaves the other samples' columns alone;
  // col2im with the same stride reads back only those columns.
  util::Rng rng(5);
  const ConvGeom g{2, 5, 4, 3, 2, 1};
  const std::size_t rows = static_cast<std::size_t>(g.in_channels * 9);
  const std::size_t plane = static_cast<std::size_t>(g.out_h() * g.out_w());
  const std::size_t ld = 3 * plane;  // a batch of 3, this sample at column 1·plane
  std::vector<float> x(static_cast<std::size_t>(g.in_channels * g.in_h * g.in_w));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> dense(rows * plane);
  im2col(x.data(), g, dense.data());
  const float sentinel = -7.0f;
  std::vector<float> batch(rows * ld, sentinel);
  im2col(x.data(), g, batch.data() + plane, ld);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < ld; ++j) {
      const float want = (j >= plane && j < 2 * plane)
                             ? dense[r * plane + (j - plane)]
                             : sentinel;
      EXPECT_EQ(batch[r * ld + j], want) << "row " << r << " col " << j;
    }
  }

  std::vector<float> from_dense(x.size(), 0.0f);
  col2im(dense.data(), g, from_dense.data());
  std::vector<float> from_batch(x.size(), 0.0f);
  col2im(batch.data() + plane, g, from_batch.data(), ld);
  EXPECT_EQ(from_batch, from_dense);
}

}  // namespace
}  // namespace hsconas::tensor
