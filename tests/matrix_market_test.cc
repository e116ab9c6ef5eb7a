#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "sparse/matrix_market.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

TEST(MatrixMarketTest, ParsesGeneralReal) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1 1.5\n"
      "2 4 -2.0\n"
      "3 2 0.5\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 3);
  EXPECT_EQ(m->cols(), 4);
  EXPECT_EQ(m->nnz(), 3);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 1.5);
  EXPECT_EQ(m->Row(1).indices[0], 3);
}

TEST(MatrixMarketTest, ParsesPattern) {
  const std::string content =
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 1.0);
  EXPECT_EQ(m->nnz(), 2);
}

TEST(MatrixMarketTest, ExpandsSymmetric) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok());
  // (2,1) mirrored to (1,2); diagonal (3,3) not duplicated.
  EXPECT_EQ(m->nnz(), 3);
  EXPECT_DOUBLE_EQ(m->Row(0).values[0], 5.0);
  EXPECT_DOUBLE_EQ(m->Row(1).values[0], 5.0);
  EXPECT_DOUBLE_EQ(m->Row(2).values[0], 7.0);
}

TEST(MatrixMarketTest, RejectsMissingBanner) {
  EXPECT_FALSE(ParseMatrixMarket("3 3 0\n").ok());
  EXPECT_FALSE(ParseMatrixMarket("").ok());
}

TEST(MatrixMarketTest, RejectsUnsupportedFormats) {
  EXPECT_FALSE(
      ParseMatrixMarket("%%MatrixMarket matrix array real general\n2 2\n")
          .ok());
  EXPECT_FALSE(ParseMatrixMarket(
                   "%%MatrixMarket matrix coordinate complex general\n"
                   "1 1 1\n1 1 1.0 2.0\n")
                   .ok());
}

TEST(MatrixMarketTest, RejectsOutOfBoundsEntries) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n";
  EXPECT_FALSE(ParseMatrixMarket(content).ok());
}

TEST(MatrixMarketTest, RejectsTruncatedEntries) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n";
  EXPECT_FALSE(ParseMatrixMarket(content).ok());
}

TEST(MatrixMarketTest, DeclaredCountTheInputCannotHoldIsInvalidArgument) {
  // Reserving the declared 4e9 entries would ask for 64 GB before the
  // first entry is read.
  const std::string lying =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4000000000\n"
      "1 1 1.0\n";
  const auto start = std::chrono::steady_clock::now();
  Status status;
  EXPECT_NO_THROW(status = ParseMatrixMarket(lying).status());
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_LT(elapsed.count(), 10.0);

  // A symmetric file doubles the reserve; the largest count must not
  // overflow on the way.
  auto symmetric = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 9223372036854775807\n"
      "1 1 1.0\n");
  ASSERT_FALSE(symmetric.ok());
  EXPECT_EQ(symmetric.status().code(), StatusCode::kInvalidArgument);

  // The bound never refuses input that holds its count: one-byte tokens,
  // no trailing newline.
  auto tight = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n2 2");
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_EQ(tight->nnz(), 2);
}

TEST(MatrixMarketTest, OversizedHeaderIsOutOfRange) {
  // Dimensions beyond the 32-bit Index range must be rejected up front
  // instead of wrapping when narrowed.
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "4294967296 4294967296 1\n"
      "1 1 1.0\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kOutOfRange);

  // One dimension in range does not excuse the other.
  auto n = ParseMatrixMarket(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3000000000 1\n"
      "1 1 1.0\n");
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.status().code(), StatusCode::kOutOfRange);
}

TEST(MatrixMarketTest, CommentOnlyFileIsInvalidArgument) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment one\n"
      "% comment two\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixMarketTest, ParsesCrlfLineEndings) {
  const std::string content =
      "%%MatrixMarket matrix coordinate real general\r\n"
      "% exported on windows\r\n"
      "2 2 2\r\n"
      "1 1 1.0\r\n"
      "2 2 2.0\r\n";
  auto m = ParseMatrixMarket(content);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows(), 2);
  EXPECT_EQ(m->nnz(), 2);
  EXPECT_DOUBLE_EQ(m->Row(1).values[0], 2.0);
}

TEST(MatrixMarketTest, NegativeCharBannerFailsGracefully) {
  // Bytes >= 0x80 are negative as plain char; classification must not
  // hit undefined behaviour and the banner must simply be rejected.
  std::string content =
      "%%MatrixMarket matrix coordinate real general\n"
      "1 1 1\n"
      "1 1 1.0\n";
  content[15] = static_cast<char>(0xE9);  // corrupt "matrix" with é
  auto m = ParseMatrixMarket(content);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kUnimplemented);
}

TEST(MatrixMarketTest, FileRoundTrip) {
  const CsrMatrix m = testing_util::RandomMatrix(17, 23, 0.15, 5);
  const std::string path = ::testing::TempDir() + "/roundtrip.mtx";
  ASSERT_TRUE(WriteMatrixMarket(m, path).ok());
  auto back = ReadMatrixMarket(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(CsrApproxEqual(m, *back, 1e-6));
  std::remove(path.c_str());
}

TEST(MatrixMarketTest, ReadMissingFileFails) {
  auto r = ReadMatrixMarket("/nonexistent/path/to/matrix.mtx");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
