#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sparse/fingerprint.h"
#include "sparse/operations.h"
#include "sparse/reference_spgemm.h"
#include "tests/test_util.h"

namespace spnet {
namespace sparse {
namespace {

CsrMatrix Small() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  // [ 4 0 5 ]
  CooMatrix coo(3, 3);
  coo.Add(0, 0, 1);
  coo.Add(0, 2, 2);
  coo.Add(1, 1, 3);
  coo.Add(2, 0, 4);
  coo.Add(2, 2, 5);
  return std::move(CsrMatrix::FromCoo(coo)).value();
}

TEST(SpMvTest, KnownProduct) {
  const CsrMatrix a = Small();
  auto y = SpMv(a, {1.0, 2.0, 3.0});
  ASSERT_TRUE(y.ok());
  EXPECT_DOUBLE_EQ((*y)[0], 7.0);   // 1*1 + 2*3
  EXPECT_DOUBLE_EQ((*y)[1], 6.0);   // 3*2
  EXPECT_DOUBLE_EQ((*y)[2], 19.0);  // 4*1 + 5*3
}

TEST(SpMvTest, SizeMismatchRejected) {
  EXPECT_FALSE(SpMv(Small(), {1.0, 2.0}).ok());
  EXPECT_FALSE(SpMvTranspose(Small(), {1.0}).ok());
}

TEST(SpMvTest, TransposeAgreesWithExplicitTranspose) {
  const CsrMatrix a = testing_util::RandomMatrix(40, 60, 0.1, 3);
  std::vector<Value> x(40);
  Rng rng(5);
  for (auto& v : x) v = rng.NextDouble();
  auto indirect = SpMvTranspose(a, x);
  auto direct = SpMv(a.Transpose(), x);
  ASSERT_TRUE(indirect.ok() && direct.ok());
  ASSERT_EQ(indirect->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_NEAR((*indirect)[i], (*direct)[i], 1e-12);
  }
}

TEST(AddTest, LinearCombination) {
  const CsrMatrix a = Small();
  auto sum = Add(a, a, 2.0, -1.0);  // = a
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(CsrApproxEqual(*sum, a));
}

TEST(AddTest, DisjointPatternsUnion) {
  CooMatrix ca(2, 2), cb(2, 2);
  ca.Add(0, 0, 1.0);
  cb.Add(1, 1, 2.0);
  auto a = CsrMatrix::FromCoo(ca);
  auto b = CsrMatrix::FromCoo(cb);
  auto sum = Add(*a, *b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->nnz(), 2);
  EXPECT_DOUBLE_EQ(sum->Row(0).values[0], 1.0);
  EXPECT_DOUBLE_EQ(sum->Row(1).values[0], 2.0);
}

TEST(AddTest, ShapeMismatchRejected) {
  const CsrMatrix a = testing_util::RandomMatrix(3, 4, 0.5, 1);
  const CsrMatrix b = testing_util::RandomMatrix(4, 3, 0.5, 2);
  EXPECT_FALSE(Add(a, b).ok());
  EXPECT_FALSE(Hadamard(a, b).ok());
}

TEST(HadamardTest, PatternIntersection) {
  const CsrMatrix a = Small();
  auto h = Hadamard(a, a);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->nnz(), a.nnz());
  EXPECT_DOUBLE_EQ(h->Row(2).values[1], 25.0);
}

TEST(ScaleTest, ScalesValues) {
  const CsrMatrix s = Scale(Small(), -2.0);
  EXPECT_DOUBLE_EQ(s.Row(0).values[1], -4.0);
  EXPECT_EQ(s.nnz(), Small().nnz());
}

TEST(SubmatrixTest, ExtractsAndReindexes) {
  const CsrMatrix a = Small();
  auto sub = Submatrix(a, 1, 3, 0, 2);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->rows(), 2);
  EXPECT_EQ(sub->cols(), 2);
  // Rows 1..2, cols 0..1 of a: [0 3; 4 0].
  EXPECT_EQ(sub->nnz(), 2);
  EXPECT_DOUBLE_EQ(sub->Row(0).values[0], 3.0);
  EXPECT_EQ(sub->Row(0).indices[0], 1);
  EXPECT_DOUBLE_EQ(sub->Row(1).values[0], 4.0);
}

TEST(SubmatrixTest, BadRangesRejected) {
  const CsrMatrix a = Small();
  EXPECT_FALSE(Submatrix(a, 2, 1, 0, 3).ok());
  EXPECT_FALSE(Submatrix(a, 0, 4, 0, 3).ok());
  EXPECT_FALSE(Submatrix(a, 0, 3, -1, 2).ok());
}

TEST(DropEntriesTest, RemovesSmallValues) {
  CooMatrix coo(2, 2);
  coo.Add(0, 0, 0.5);
  coo.Add(0, 1, -2.0);
  coo.Add(1, 1, 0.0);
  auto a = CsrMatrix::FromCoo(coo);
  const CsrMatrix d = DropEntries(*a, 0.6);
  EXPECT_EQ(d.nnz(), 1);
  EXPECT_DOUBLE_EQ(d.Row(0).values[0], -2.0);
  // Threshold 0 keeps 0.5 but drops the explicit zero.
  EXPECT_EQ(DropEntries(*a).nnz(), 2);
}

TEST(TopKTest, KeepsLargestMagnitudesSorted) {
  CooMatrix coo(1, 5);
  coo.Add(0, 0, 1.0);
  coo.Add(0, 1, -5.0);
  coo.Add(0, 2, 3.0);
  coo.Add(0, 3, -2.0);
  coo.Add(0, 4, 4.0);
  auto a = CsrMatrix::FromCoo(coo);
  const CsrMatrix top = TopKPerRow(*a, 2);
  ASSERT_EQ(top.nnz(), 2);
  EXPECT_EQ(top.Row(0).indices[0], 1);
  EXPECT_EQ(top.Row(0).indices[1], 4);
  EXPECT_TRUE(top.RowsSorted());
  // k larger than the row keeps everything.
  EXPECT_EQ(TopKPerRow(*a, 10).nnz(), 5);
  EXPECT_EQ(TopKPerRow(*a, 0).nnz(), 0);
}

TEST(TopKTest, EqualMagnitudeTiesBreakByColumnIndex) {
  // Five entries of identical magnitude (mixed signs): the k survivors at
  // the boundary must be the lowest column ids, independent of entry order.
  CooMatrix coo(1, 5);
  coo.Add(0, 4, 2.0);
  coo.Add(0, 2, -2.0);
  coo.Add(0, 0, 2.0);
  coo.Add(0, 3, 2.0);
  coo.Add(0, 1, -2.0);
  auto a = CsrMatrix::FromCoo(coo);
  const CsrMatrix top = TopKPerRow(*a, 3);
  ASSERT_EQ(top.nnz(), 3);
  EXPECT_EQ(top.Row(0).indices[0], 0);
  EXPECT_EQ(top.Row(0).indices[1], 1);
  EXPECT_EQ(top.Row(0).indices[2], 2);
  EXPECT_DOUBLE_EQ(top.Row(0).values[1], -2.0);  // signs travel with entries

  // The same row stored with unsorted entries (FromCoo would sort them, so
  // build from parts directly) must select the same survivors: the result
  // may not depend on the order entries happen to sit in the CSR arrays.
  auto b = CsrMatrix::FromParts(1, 5, {0, 5}, {4, 1, 3, 0, 2},
                                {2.0, -2.0, 2.0, 2.0, -2.0});
  ASSERT_TRUE(b.ok());
  const CsrMatrix top2 = TopKPerRow(*b, 3);
  ASSERT_EQ(top2.nnz(), 3);
  for (Offset i = 0; i < 3; ++i) {
    EXPECT_EQ(top2.Row(0).indices[i], top.Row(0).indices[i]);
    EXPECT_DOUBLE_EQ(top2.Row(0).values[i], top.Row(0).values[i]);
  }

  // A mixed row where the boundary tie sits below a strictly larger entry:
  // |−9| wins outright, then the tie at |3| resolves to the lower column.
  CooMatrix coo3(1, 4);
  coo3.Add(0, 0, 3.0);
  coo3.Add(0, 1, -9.0);
  coo3.Add(0, 2, -3.0);
  coo3.Add(0, 3, 1.0);
  auto c = CsrMatrix::FromCoo(coo3);
  const CsrMatrix top3 = TopKPerRow(*c, 2);
  ASSERT_EQ(top3.nnz(), 2);
  EXPECT_EQ(top3.Row(0).indices[0], 0);
  EXPECT_EQ(top3.Row(0).indices[1], 1);
}

TEST(NormTest, FrobeniusAndSum) {
  const CsrMatrix a = Small();
  EXPECT_NEAR(FrobeniusNorm(a), std::sqrt(1.0 + 4 + 9 + 16 + 25), 1e-12);
  EXPECT_DOUBLE_EQ(EntrySum(a), 15.0);
}

TEST(IdentityTest, NeutralUnderSpGemm) {
  const CsrMatrix a = testing_util::RandomMatrix(25, 25, 0.2, 9);
  auto c = ReferenceSpGemm(a, Identity(25));
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(CsrApproxEqual(*c, a));
}

TEST(RowNormalizeTest, RowsSumToOne) {
  const CsrMatrix a = testing_util::SkewedMatrix(50, 30, 4);
  const CsrMatrix p = RowNormalize(a);
  for (Index r = 0; r < p.rows(); ++r) {
    const SpanView row = p.Row(r);
    if (row.size == 0) continue;
    Value sum = 0.0;
    for (Offset k = 0; k < row.size; ++k) sum += row.values[k];
    EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << r;
  }
}

TEST(DiagonalTest, RoundTrip) {
  const std::vector<Value> d = {1.0, 0.0, -3.0};
  const CsrMatrix m = Diagonal(d);
  EXPECT_EQ(m.rows(), 3);
  const auto back = ExtractDiagonal(m);
  ASSERT_EQ(back.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(back[i], d[i]);
  // Extracting from a non-diagonal matrix picks diagonal entries only.
  const auto diag = ExtractDiagonal(Small());
  EXPECT_DOUBLE_EQ(diag[0], 1.0);
  EXPECT_DOUBLE_EQ(diag[1], 3.0);
  EXPECT_DOUBLE_EQ(diag[2], 5.0);
}

/// A fixed non-trivial bijection of [0, n): i -> (7 i + 3) mod n, for n
/// coprime to 7.
std::vector<Index> StridePermutation(Index n) {
  std::vector<Index> new_to_old(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    new_to_old[static_cast<size_t>(i)] = (7 * i + 3) % n;
  }
  return new_to_old;
}

std::vector<Index> Inverse(const std::vector<Index>& new_to_old) {
  std::vector<Index> old_to_new(new_to_old.size());
  for (size_t i = 0; i < new_to_old.size(); ++i) {
    old_to_new[static_cast<size_t>(new_to_old[i])] = static_cast<Index>(i);
  }
  return old_to_new;
}

void ExpectBitIdentical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.ptr(), b.ptr());
  EXPECT_EQ(a.indices(), b.indices());
  EXPECT_EQ(a.values(), b.values());
}

TEST(PermuteTest, RejectsNonBijections) {
  const CsrMatrix a = Small();
  for (const std::vector<Index>& bad :
       {std::vector<Index>{0, 1, 3},      // out of range
        std::vector<Index>{0, -1, 2},     // negative
        std::vector<Index>{0, 1, 1},      // duplicate
        std::vector<Index>{1, 0}}) {      // wrong size
    EXPECT_EQ(PermuteRows(a, bad).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(PermuteCols(a, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(PermuteRows(a, {2, 0, 1}).ok());
  EXPECT_TRUE(PermuteCols(a, {2, 0, 1}).ok());
}

TEST(PermuteTest, RowsKeepInRowOrderAndValues) {
  // Row 0 is deliberately unsorted: a row permutation must not touch it.
  auto m = CsrMatrix::FromParts(3, 4, {0, 2, 3, 5}, {3, 1, 0, 2, 3},
                                {1.5, -2.0, 3.25, 4.0, -0.0});
  ASSERT_TRUE(m.ok());
  auto p = PermuteRows(*m, {2, 0, 1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ptr(), (std::vector<Offset>{0, 2, 4, 5}));
  EXPECT_EQ(p->indices(), (std::vector<Index>{2, 3, 3, 1, 0}));
  EXPECT_EQ(p->values(), (std::vector<Value>{4.0, -0.0, 1.5, -2.0, 3.25}));
  EXPECT_TRUE(std::signbit(p->values()[1]));
}

TEST(PermuteTest, ColsResortRowsAndMoveValuesBitExactly) {
  const CsrMatrix m = testing_util::RandomMatrix(32, 40, 0.12, 18);
  const std::vector<Index> new_to_old = StridePermutation(40);
  const std::vector<Index> old_to_new = Inverse(new_to_old);
  auto p = PermuteCols(m, new_to_old);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->RowsSorted());
  EXPECT_EQ(p->ptr(), m.ptr());
  for (Index r = 0; r < m.rows(); ++r) {
    const SpanView row = m.Row(r);
    const SpanView moved = p->Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      const Index c = old_to_new[static_cast<size_t>(row.indices[k])];
      const Index* hit = std::find(moved.indices, moved.indices + moved.size, c);
      ASSERT_NE(hit, moved.indices + moved.size);
      EXPECT_EQ(moved.values[hit - moved.indices], row.values[k]);
    }
  }
}

TEST(PermuteTest, InverseRestoresInputBitForBit) {
  const CsrMatrix m = testing_util::RandomMatrix(40, 33, 0.12, 17);
  const std::vector<Index> rows = StridePermutation(40);
  const std::vector<Index> cols = StridePermutation(33);
  auto permuted = PermuteRows(m, rows);
  ASSERT_TRUE(permuted.ok());
  for (Index r = 0; r < m.rows(); ++r) {
    EXPECT_EQ(permuted->RowNnz(r), m.RowNnz(rows[static_cast<size_t>(r)]));
  }
  permuted = PermuteCols(*permuted, cols);
  ASSERT_TRUE(permuted.ok());
  // The plan cache keys on structure, so a relabelled operand must not
  // collide with the original.
  EXPECT_NE(StructuralFingerprint(*permuted), StructuralFingerprint(m));
  auto restored = PermuteCols(*permuted, Inverse(cols));
  ASSERT_TRUE(restored.ok());
  restored = PermuteRows(*restored, Inverse(rows));
  ASSERT_TRUE(restored.ok());
  ExpectBitIdentical(*restored, m);
  EXPECT_EQ(StructuralFingerprint(*restored), StructuralFingerprint(m));
}

TEST(OperationsPropertyTest, AddIsDistributiveOverSpGemm) {
  // (A + B) * C == A*C + B*C on random inputs.
  const CsrMatrix a = testing_util::RandomMatrix(20, 25, 0.15, 11);
  const CsrMatrix b = testing_util::RandomMatrix(20, 25, 0.15, 12);
  const CsrMatrix c = testing_util::RandomMatrix(25, 15, 0.2, 13);
  auto ab = Add(a, b);
  ASSERT_TRUE(ab.ok());
  auto left = ReferenceSpGemm(*ab, c);
  auto ac = ReferenceSpGemm(a, c);
  auto bc = ReferenceSpGemm(b, c);
  ASSERT_TRUE(left.ok() && ac.ok() && bc.ok());
  auto right = Add(*ac, *bc);
  ASSERT_TRUE(right.ok());
  EXPECT_TRUE(CsrApproxEqual(*left, *right, 1e-9));
}

}  // namespace
}  // namespace sparse
}  // namespace spnet
