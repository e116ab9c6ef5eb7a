#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sparse/fingerprint.h"
#include "sparse/operations.h"
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
  EXPECT_EQ(p->indices(), (IndexArray{2, 3, 3, 1, 0}));
  EXPECT_EQ(p->values(), (ValueArray{4.0, -0.0, 1.5, -2.0, 3.25}));
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

}  // namespace
}  // namespace sparse
}  // namespace spnet
