#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/parallel.h"
#include "sparse/reference_spgemm.h"
#include "sparse/stats.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

CsrMatrix Diagonal(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) coo.Add(i, i, 1.0);
  auto r = CsrMatrix::FromCoo(coo);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(StatsTest, UniformRowsHaveZeroSkew) {
  const CsrMatrix m = Diagonal(100);
  const DegreeStats s = ComputeRowStats(m);
  EXPECT_EQ(s.min_nnz, 1);
  EXPECT_EQ(s.max_nnz, 1);
  EXPECT_DOUBLE_EQ(s.mean_nnz, 1.0);
  EXPECT_DOUBLE_EQ(s.cv, 0.0);
  EXPECT_NEAR(s.gini, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.frac_rows_below_warp, 1.0);
}

TEST(StatsTest, SkewedMatrixHasHighGini) {
  const CsrMatrix m = testing_util::SkewedMatrix(256, 200, 3);
  const DegreeStats s = ComputeRowStats(m);
  EXPECT_GT(s.max_nnz, 16);
  EXPECT_GT(s.gini, 0.3);
  EXPECT_GT(s.cv, 1.0);
}

TEST(StatsTest, FlopsMatchesManualCount) {
  // a = [1 1; 0 1], b = [1 0; 1 1]
  CooMatrix ca(2, 2), cb(2, 2);
  ca.Add(0, 0, 1);
  ca.Add(0, 1, 1);
  ca.Add(1, 1, 1);
  cb.Add(0, 0, 1);
  cb.Add(1, 0, 1);
  cb.Add(1, 1, 1);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  ASSERT_TRUE(a.ok() && b.ok());
  // row 0 of a: cols {0,1} -> nnz(b row 0)=1 + nnz(b row 1)=2 = 3
  // row 1 of a: col {1} -> 2. total 5.
  EXPECT_EQ(SpGemmFlops(*a, *b), 5);
  auto row_flops = SpGemmRowFlops(*a, *b);
  ASSERT_EQ(row_flops.size(), 2u);
  EXPECT_EQ(row_flops[0], 3);
  EXPECT_EQ(row_flops[1], 2);
}

TEST(StatsTest, PairWorkMatchesColRowProducts) {
  CooMatrix ca(3, 2), cb(2, 3);
  ca.Add(0, 0, 1);
  ca.Add(1, 0, 1);
  ca.Add(2, 1, 1);
  cb.Add(0, 0, 1);
  cb.Add(0, 2, 1);
  cb.Add(1, 1, 1);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  ASSERT_TRUE(a.ok() && b.ok());
  auto work = OuterProductPairWork(*a, *b);
  ASSERT_EQ(work.size(), 2u);
  EXPECT_EQ(work[0], 2 * 2);  // col 0 of a has 2, row 0 of b has 2
  EXPECT_EQ(work[1], 1 * 1);
}

TEST(StatsTest, PairWorkSumsToFlops) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 40, 1);
  const CsrMatrix b = testing_util::SkewedMatrix(64, 40, 2);
  auto work = OuterProductPairWork(a, b);
  int64_t total = 0;
  for (int64_t w : work) total += w;
  EXPECT_EQ(total, SpGemmFlops(a, b));
}

TEST(ReferenceSpGemmTest, IdentityIsNeutral) {
  const CsrMatrix m = testing_util::RandomMatrix(20, 20, 0.2, 7);
  const CsrMatrix eye = Diagonal(20);
  auto left = ReferenceSpGemm(eye, m);
  auto right = ReferenceSpGemm(m, eye);
  ASSERT_TRUE(left.ok() && right.ok());
  EXPECT_TRUE(CsrApproxEqual(*left, m));
  EXPECT_TRUE(CsrApproxEqual(*right, m));
}

TEST(ReferenceSpGemmTest, KnownSmallProduct) {
  // a = [1 2; 3 0], b = [0 1; 2 0] -> c = [4 1; 0 3]
  CooMatrix ca(2, 2), cb(2, 2);
  ca.Add(0, 0, 1);
  ca.Add(0, 1, 2);
  ca.Add(1, 0, 3);
  cb.Add(0, 1, 1);
  cb.Add(1, 0, 2);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = ReferenceSpGemm(*a, *b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 3);
  EXPECT_DOUBLE_EQ(c->Row(0).values[0], 4.0);  // col 0
  EXPECT_DOUBLE_EQ(c->Row(0).values[1], 1.0);  // col 1
  EXPECT_DOUBLE_EQ(c->Row(1).values[0], 3.0);
}

TEST(ReferenceSpGemmTest, DimensionMismatchRejected) {
  const CsrMatrix a = testing_util::RandomMatrix(4, 5, 0.5, 1);
  const CsrMatrix b = testing_util::RandomMatrix(4, 5, 0.5, 2);
  EXPECT_FALSE(ReferenceSpGemm(a, b).ok());
}

TEST(ReferenceSpGemmTest, CancellationKeepsExplicitZero) {
  // (1)(1) + (1)(-1) = 0: Gustavson keeps a numerically-zero entry.
  CooMatrix ca(1, 2), cb(2, 1);
  ca.Add(0, 0, 1.0);
  ca.Add(0, 1, 1.0);
  cb.Add(0, 0, 1.0);
  cb.Add(1, 0, -1.0);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = ReferenceSpGemm(*a, *b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 1);
  EXPECT_DOUBLE_EQ(c->Row(0).values[0], 0.0);
}

TEST(ReferenceSpGemmTest, SymbolicNnzMatchesNumeric) {
  const CsrMatrix a = testing_util::SkewedMatrix(60, 30, 11);
  const CsrMatrix b = testing_util::SkewedMatrix(60, 30, 12);
  auto c = ReferenceSpGemm(a, b);
  auto nnz = SpGemmExactOutputNnz(a, b);
  ASSERT_TRUE(c.ok() && nnz.ok());
  EXPECT_EQ(c->nnz(), nnz.value());
}

TEST(ReferenceSpGemmTest, AssociativityOnSmallMatrices) {
  const CsrMatrix a = testing_util::RandomMatrix(12, 15, 0.3, 21);
  const CsrMatrix b = testing_util::RandomMatrix(15, 9, 0.3, 22);
  const CsrMatrix c = testing_util::RandomMatrix(9, 14, 0.3, 23);
  auto ab = ReferenceSpGemm(a, b);
  auto bc = ReferenceSpGemm(b, c);
  ASSERT_TRUE(ab.ok() && bc.ok());
  auto ab_c = ReferenceSpGemm(*ab, c);
  auto a_bc = ReferenceSpGemm(a, *bc);
  ASSERT_TRUE(ab_c.ok() && a_bc.ok());
  EXPECT_TRUE(CsrApproxEqual(*ab_c, *a_bc, 1e-8));
}

/// B for the cancellation pin: row 0 fills columns 0..599 with 1.0, row 1
/// puts -1.0 on every third of them, and rows 2 and 3 put 2.0 and -2.0 on
/// column 7 (row 2 also on column 900). A's rows pick (0, 1), (1), (2, 3)
/// and nothing, so C has a wide row of exact zeros, a plain wide row, a
/// two-entry row with a cancelled entry and an empty row.
std::pair<CsrMatrix, CsrMatrix> CancellingOperands() {
  CooMatrix ca(4, 4), cb(4, 1000);
  ca.Add(0, 0, 1.0);
  ca.Add(0, 1, 1.0);
  ca.Add(1, 1, 1.0);
  ca.Add(2, 2, 1.0);
  ca.Add(2, 3, 1.0);
  for (Index c = 0; c < 600; ++c) cb.Add(0, c, 1.0);
  for (Index c = 0; c < 600; c += 3) cb.Add(1, c, -1.0);
  cb.Add(2, 7, 2.0);
  cb.Add(2, 900, 2.0);
  cb.Add(3, 7, -2.0);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  SPNET_CHECK(a.ok() && b.ok());
  return {std::move(a).value(), std::move(b).value()};
}

/// Operands whose product rows touch anywhere from one to all 1001
/// columns of C, so the oracle orders rows on both sides of its sort/scan
/// crossover. 1001 is not a multiple of 64: the last word of a row's
/// column bitset is only partly used, and B's row 11 holds only its top
/// column. B's row j (j <= 10) holds every 2^j-th column; row 12 holds
/// columns 960..1000. A's row r takes B's row r % 13 alone (r < 13), with
/// row 11 (r < 26), or with the next row negated (r < 39); row 39 is empty.
std::pair<CsrMatrix, CsrMatrix> GradedOperands() {
  constexpr Index kCols = 1001;
  constexpr Index kBRows = 13;
  CooMatrix ca(40, kBRows), cb(kBRows, kCols);
  for (Index j = 0; j <= 10; ++j) {
    for (Index c = 0; c < kCols; c += Index{1} << j) {
      cb.Add(j, c, 0.5 + j + c / 1024.0);
    }
  }
  cb.Add(11, kCols - 1, 3.25);
  for (Index c = 960; c < kCols; ++c) cb.Add(12, c, 1.0 / (c - 950));
  for (Index r = 0; r < 39; ++r) {
    const Index j = r % kBRows;
    ca.Add(r, j, 1.0 + r / 64.0);
    if (r >= 26) {
      ca.Add(r, (j + 1) % kBRows, -1.0);
    } else if (r >= 13 && j != 11) {
      ca.Add(r, 11, 0.75);
    }
  }
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  SPNET_CHECK(a.ok() && b.ok());
  return {std::move(a).value(), std::move(b).value()};
}

/// The same product as `a` * `b` with the inner dimension reversed: A's
/// column j and B's row j move to k-1-j. Row by row, B's rows are then
/// accumulated in the opposite order, so a row's first-touch order is not
/// its column order, on both sides of the oracle's sort/scan crossover.
std::pair<CsrMatrix, CsrMatrix> ReverseInner(const CsrMatrix& a,
                                             const CsrMatrix& b) {
  const Index k = a.cols();
  CooMatrix ca(a.rows(), k), cb(k, b.cols());
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    for (Offset p = 0; p < row.size; ++p) {
      ca.Add(r, k - 1 - row.indices[p], row.values[p]);
    }
  }
  for (Index j = 0; j < k; ++j) {
    const SpanView row = b.Row(j);
    for (Offset p = 0; p < row.size; ++p) {
      cb.Add(k - 1 - j, row.indices[p], row.values[p]);
    }
  }
  auto ra = CsrMatrix::FromCoo(ca);
  auto rb = CsrMatrix::FromCoo(cb);
  SPNET_CHECK(ra.ok() && rb.ok());
  return {std::move(ra).value(), std::move(rb).value()};
}

/// Pins every bit of the oracle's output at 1 and 4 pool threads (it runs
/// the same serial loop at both). The skewed product has hub rows that touch
/// most of C's columns and tail rows that touch a handful; the random one
/// has empty rows; the cancelling one keeps exact zeros; the graded ones
/// have rows of every density and rows that touch C's last column.
TEST(ReferenceSpGemmTest, OutputBitsArePinned) {
  const CsrMatrix skewed = testing_util::SkewedMatrix(600, 500, 7);
  const CsrMatrix sparse_rows = testing_util::RandomMatrix(300, 300, 0.004, 5);
  const auto [cancel_a, cancel_b] = CancellingOperands();
  const auto [graded_a, graded_b] = GradedOperands();
  const auto [reversed_a, reversed_b] = ReverseInner(graded_a, graded_b);
  struct Pin {
    const char* name;
    const CsrMatrix& a;
    const CsrMatrix& b;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"skewed", skewed, skewed, 8323349849015304431ULL},
      {"empty-rows", sparse_rows, sparse_rows, 9835578435690253474ULL},
      {"cancelling", cancel_a, cancel_b, 863302957928289398ULL},
      {"graded", graded_a, graded_b, 7512089796500616939ULL},
      {"graded-reversed", reversed_a, reversed_b, 7512089796500616939ULL},
  };
  for (const Pin& pin : pins) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(pin.name) + " with " + std::to_string(threads) +
                   " threads");
      SetGlobalThreadCount(threads);
      auto c = ReferenceSpGemm(pin.a, pin.b);
      SetGlobalThreadCount(0);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(testing_util::OutputHash(*c), pin.hash);
    }
  }
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
