// Tests for the sparse::Reorder pre-pass: strategy parsing, permutation
// algebra (round-trips, inversion, composition), builder properties, the
// end-to-end bit-identity promise of every registry reorder variant
// against the unpermuted reference, fingerprint sensitivity, and the
// permutation invariance of the exact-tier classifier bins.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/block_reorganizer.h"
#include "core/reorganizer_config.h"
#include "gpusim/device_spec.h"
#include "sparse/csr_matrix.h"
#include "sparse/fingerprint.h"
#include "sparse/reorder.h"
#include "spgemm/algorithm.h"
#include "spgemm/algorithm_registry.h"
#include "tests/test_util.h"

#include "gtest/gtest.h"

namespace spnet {
namespace {

using sparse::CsrMatrix;
using sparse::Permutation;
using sparse::ReorderStrategy;

/// Exact structural + numeric equality; callers sort rows first when the
/// within-row order is not already canonical.
void ExpectBitIdentical(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.ptr(), b.ptr());
  EXPECT_EQ(a.indices(), b.indices());
  EXPECT_EQ(a.values(), b.values());
}

std::vector<ReorderStrategy> NonTrivialStrategies() {
  std::vector<ReorderStrategy> out;
  for (ReorderStrategy s : sparse::AllReorderStrategies()) {
    if (s != ReorderStrategy::kNone) out.push_back(s);
  }
  return out;
}

TEST(ReorderStrategyTest, NamesRoundTrip) {
  for (ReorderStrategy s : sparse::AllReorderStrategies()) {
    auto parsed = sparse::ParseReorderStrategy(sparse::ReorderStrategyName(s));
    ASSERT_TRUE(parsed.ok()) << sparse::ReorderStrategyName(s);
    EXPECT_EQ(*parsed, s);
  }
  auto bad = sparse::ParseReorderStrategy("sorted-by-vibes");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(PermutationTest, FromNewToOldRejectsNonBijections) {
  EXPECT_FALSE(Permutation::FromNewToOld({0, 2}).ok());   // out of range
  EXPECT_FALSE(Permutation::FromNewToOld({0, 0}).ok());   // duplicate
  EXPECT_FALSE(Permutation::FromNewToOld({1, -1}).ok());  // negative
  auto ok = Permutation::FromNewToOld({1, 0});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2);
  EXPECT_FALSE(ok->IsIdentity());
}

TEST(PermutationTest, IdentityIsIdentity) {
  const Permutation id = Permutation::Identity(5);
  EXPECT_TRUE(id.IsIdentity());
  EXPECT_TRUE(id.Inverse().IsIdentity());
  for (sparse::Index i = 0; i < 5; ++i) {
    EXPECT_EQ(id.OldOf(i), i);
    EXPECT_EQ(id.NewOf(i), i);
  }
}

TEST(PermutationTest, InverseSwapsDirections) {
  auto p = Permutation::FromNewToOld({2, 0, 3, 1});
  ASSERT_TRUE(p.ok());
  const Permutation inv = p->Inverse();
  for (sparse::Index i = 0; i < p->size(); ++i) {
    EXPECT_EQ(inv.OldOf(i), p->NewOf(i));
    EXPECT_EQ(inv.NewOf(i), p->OldOf(i));
  }
  auto round = Permutation::Compose(inv, *p);
  ASSERT_TRUE(round.ok());
  EXPECT_TRUE(round->IsIdentity());
}

TEST(PermutationTest, RowApplicationRoundTrips) {
  const CsrMatrix m = testing_util::RandomMatrix(40, 32, 0.12, 17);
  for (ReorderStrategy s : NonTrivialStrategies()) {
    auto p = sparse::BuildRowPermutation(m, s);
    ASSERT_TRUE(p.ok()) << sparse::ReorderStrategyName(s);
    auto permuted = p->ApplyToRows(m);
    ASSERT_TRUE(permuted.ok());
    // Each new row is exactly the original row it points at.
    for (sparse::Index r = 0; r < m.rows(); ++r) {
      const sparse::Index old_row = p->OldOf(r);
      EXPECT_EQ(permuted->ptr()[static_cast<size_t>(r) + 1] -
                    permuted->ptr()[static_cast<size_t>(r)],
                m.ptr()[static_cast<size_t>(old_row) + 1] -
                    m.ptr()[static_cast<size_t>(old_row)]);
    }
    auto restored = p->Inverse().ApplyToRows(*permuted);
    ASSERT_TRUE(restored.ok());
    ExpectBitIdentical(*restored, m);
  }
}

TEST(PermutationTest, ColumnApplicationRoundTrips) {
  const CsrMatrix m = testing_util::RandomMatrix(32, 40, 0.12, 18);
  for (ReorderStrategy s : NonTrivialStrategies()) {
    auto p = sparse::BuildColPermutation(m, s);
    ASSERT_TRUE(p.ok()) << sparse::ReorderStrategyName(s);
    auto permuted = p->ApplyToCols(m);
    ASSERT_TRUE(permuted.ok());
    auto restored = p->Inverse().ApplyToCols(*permuted);
    ASSERT_TRUE(restored.ok());
    // FromCoo produced sorted rows and ApplyToCols re-sorts, so the
    // round trip is exact, values included.
    ExpectBitIdentical(*restored, m);
  }
}

TEST(PermutationTest, ComposeMatchesSequentialApplication) {
  const CsrMatrix m = testing_util::SkewedMatrix(48, 30, 5);
  auto p = sparse::BuildRowPermutation(m, ReorderStrategy::kDegree);
  ASSERT_TRUE(p.ok());
  auto once = p->ApplyToRows(m);
  ASSERT_TRUE(once.ok());
  auto q = sparse::BuildRowPermutation(*once, ReorderStrategy::kRcm);
  ASSERT_TRUE(q.ok());
  auto twice = q->ApplyToRows(*once);
  ASSERT_TRUE(twice.ok());

  auto combined = Permutation::Compose(*q, *p);
  ASSERT_TRUE(combined.ok());
  auto direct = combined->ApplyToRows(m);
  ASSERT_TRUE(direct.ok());
  ExpectBitIdentical(*direct, *twice);

  auto mismatched = Permutation::Compose(*q, Permutation::Identity(3));
  EXPECT_FALSE(mismatched.ok());
}

TEST(PermutationTest, DenseVectorApplication) {
  auto p = Permutation::FromNewToOld({2, 0, 1});
  ASSERT_TRUE(p.ok());
  auto out = p->Apply(std::vector<double>{10.0, 11.0, 12.0});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (std::vector<double>{12.0, 10.0, 11.0}));
  // Applying p then its inverse is the identity on the vector.
  auto back = p->Inverse().Apply(*out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, (std::vector<double>{10.0, 11.0, 12.0}));
  EXPECT_FALSE(p->Apply(std::vector<double>{1.0}).ok());
}

TEST(ReorderBuilderTest, DegreeOrderIsDescendingWithStableTies) {
  const CsrMatrix m = testing_util::RandomMatrix(50, 50, 0.08, 23);
  auto p = sparse::BuildRowPermutation(m, ReorderStrategy::kDegree);
  ASSERT_TRUE(p.ok());
  auto nnz_of = [&](sparse::Index row) {
    return m.ptr()[static_cast<size_t>(row) + 1] -
           m.ptr()[static_cast<size_t>(row)];
  };
  for (sparse::Index i = 0; i + 1 < p->size(); ++i) {
    const sparse::Index a = p->OldOf(i);
    const sparse::Index b = p->OldOf(i + 1);
    ASSERT_GE(nnz_of(a), nnz_of(b)) << "position " << i;
    if (nnz_of(a) == nnz_of(b)) {
      EXPECT_LT(a, b) << "tie at position " << i;
    }
  }
}

TEST(ReorderBuilderTest, NoneIsIdentityAndBuildersAreDeterministic) {
  const CsrMatrix m = testing_util::SkewedMatrix(40, 25, 9);
  auto none = sparse::BuildRowPermutation(m, ReorderStrategy::kNone);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->IsIdentity());
  for (ReorderStrategy s : NonTrivialStrategies()) {
    auto first = sparse::BuildRowPermutation(m, s);
    auto second = sparse::BuildRowPermutation(m, s);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->new_to_old(), second->new_to_old())
        << sparse::ReorderStrategyName(s);
  }
}

TEST(ReorderFingerprintTest, PermutedMatrixFingerprintsDiffer) {
  const CsrMatrix m = testing_util::RandomMatrix(60, 60, 0.05, 11);
  const uint64_t original = sparse::StructuralFingerprint(m);
  for (ReorderStrategy s : NonTrivialStrategies()) {
    auto p = sparse::BuildRowPermutation(m, s);
    ASSERT_TRUE(p.ok()) << sparse::ReorderStrategyName(s);
    ASSERT_FALSE(p->IsIdentity()) << sparse::ReorderStrategyName(s);
    auto permuted = p->ApplyToRows(m);
    ASSERT_TRUE(permuted.ok());
    EXPECT_NE(sparse::StructuralFingerprint(*permuted), original)
        << sparse::ReorderStrategyName(s);
  }
}

TEST(ReorderFingerprintTest, ConfigFingerprintsSeparateStrategies) {
  std::vector<uint64_t> fingerprints;
  for (ReorderStrategy s : sparse::AllReorderStrategies()) {
    core::ReorganizerConfig config;
    config.reorder = s;
    fingerprints.push_back(config.Fingerprint());
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_EQ(std::unique(fingerprints.begin(), fingerprints.end()),
            fingerprints.end());
}

/// Every registered reorder ablation variant must produce bit-identical
/// output to the unpermuted "reorganizer" reference — the pass's core
/// promise, here checked through the public registry path the sweep and
/// the CLI use.
TEST(ReorderEndToEndTest, RegistryVariantsAreBitIdentical) {
  core::RegisterCoreAlgorithms();
  auto& registry = spgemm::AlgorithmRegistry::Global();

  CsrMatrix a = testing_util::SkewedMatrix(64, 40, 7);
  CsrMatrix b = testing_util::RandomMatrix(64, 64, 0.08, 9);
  auto reference_algorithm = registry.Create("reorganizer");
  ASSERT_TRUE(reference_algorithm.ok());
  auto reference = (*reference_algorithm)->Compute(a, b, nullptr);
  ASSERT_TRUE(reference.ok());
  reference->SortRows();

  for (const char* name : {"reorganizer-reorder-degree",
                           "reorganizer-reorder-rcm",
                           "reorganizer-reorder-cluster"}) {
    auto algorithm = registry.Create(name);
    ASSERT_TRUE(algorithm.ok()) << name;
    auto result = (*algorithm)->Compute(a, b, nullptr);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    result->SortRows();
    ExpectBitIdentical(*result, *reference);
  }
}

/// The exact-tier classifier is permutation invariant: pair_work depends
/// only on the inner dimension (untouched by the pre-pass) and row C-hat
/// populations are merely relabeled, so every bin census Analyze reports
/// is identical with and without reordering. This is the theory the
/// locality bench (bench_reorder_locality) verifies at scale; shifts can
/// only appear in the estimated tier, whose row sampling is order
/// sensitive.
TEST(ReorderEndToEndTest, ExactTierBinCensusIsPermutationInvariant) {
  const CsrMatrix a = testing_util::SkewedMatrix(80, 50, 13);
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();

  core::ReorganizerConfig baseline_config;
  const core::BlockReorganizerSpGemm baseline(baseline_config);
  auto expected = baseline.Analyze(a, a, device);
  ASSERT_TRUE(expected.ok());

  for (ReorderStrategy s : NonTrivialStrategies()) {
    core::ReorganizerConfig config;
    config.reorder = s;
    const core::BlockReorganizerSpGemm reordered(config);
    auto report = reordered.Analyze(a, a, device);
    ASSERT_TRUE(report.ok()) << sparse::ReorderStrategyName(s);
    EXPECT_EQ(report->nonzero_pairs, expected->nonzero_pairs);
    EXPECT_EQ(report->dominators, expected->dominators);
    EXPECT_EQ(report->low_performers, expected->low_performers);
    EXPECT_EQ(report->normals, expected->normals);
    EXPECT_EQ(report->limited_rows, expected->limited_rows);
    EXPECT_EQ(report->fragments, expected->fragments);
    EXPECT_EQ(report->dominator_threshold, expected->dominator_threshold);
    EXPECT_EQ(report->limit_row_threshold, expected->limit_row_threshold);
  }
}

}  // namespace
}  // namespace spnet
