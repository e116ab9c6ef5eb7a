// Tests for the estimation planning tier: BuildWorkloadEstimated's
// guaranteed bands, its exact pair side, the confidence accounting, and
// ClassifyEstimated's agreement contract with the exact classifier
// (verify::CheckEstimatedClassification as a hard invariant).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>

#include "core/reorganizer_config.h"
#include "core/workload_classifier.h"
#include "sparse/coo_matrix.h"
#include "sparse/csr_matrix.h"
#include "spgemm/nnz_estimator.h"
#include "spgemm/workload_model.h"
#include "tests/test_util.h"
#include "verify/invariants.h"

namespace spnet {
namespace spgemm {
namespace {

using sparse::CsrMatrix;

/// Asserts the structural contract of an estimate against the exact
/// workload for the same operands: the pair side is exact, every row band
/// brackets the exact row_chat, and rows flagged exact really are.
void ExpectBandsBracketExact(const Workload& exact,
                             const EstimatedWorkload& est) {
  ASSERT_EQ(est.workload.b_row_nnz, exact.b_row_nnz);
  ASSERT_EQ(est.workload.a_col_nnz, exact.a_col_nnz);
  ASSERT_EQ(est.workload.pair_work, exact.pair_work);
  EXPECT_EQ(est.workload.flops, exact.flops);
  ASSERT_EQ(est.row_chat_lo.size(), exact.row_chat.size());
  ASSERT_EQ(est.row_chat_hi.size(), exact.row_chat.size());
  ASSERT_EQ(est.row_exact.size(), exact.row_chat.size());
  for (size_t r = 0; r < exact.row_chat.size(); ++r) {
    EXPECT_LE(est.row_chat_lo[r], exact.row_chat[r]) << "row " << r;
    EXPECT_GE(est.row_chat_hi[r], exact.row_chat[r]) << "row " << r;
    // The point estimate must live inside its own band.
    EXPECT_LE(est.row_chat_lo[r], est.workload.row_chat[r]) << "row " << r;
    EXPECT_GE(est.row_chat_hi[r], est.workload.row_chat[r]) << "row " << r;
    if (est.row_exact[r]) {
      EXPECT_EQ(est.workload.row_chat[r], exact.row_chat[r]) << "row " << r;
      EXPECT_EQ(est.row_chat_lo[r], est.row_chat_hi[r]) << "row " << r;
    }
  }
}

TEST(NnzEstimatorTest, BandsBracketExactOnSkewedInput) {
  const CsrMatrix a = testing_util::SkewedMatrix(400, 160, 11);
  const Workload exact = BuildWorkload(a, a);
  const EstimatedWorkload est = BuildWorkloadEstimated(a, a);
  ExpectBandsBracketExact(exact, est);
  EXPECT_GE(est.confidence, 0.0);
  EXPECT_LE(est.confidence, 1.0);
  EXPECT_LE(est.exact_mass, exact.flops);
}

TEST(NnzEstimatorTest, BandsBracketExactOnUniformInput) {
  const CsrMatrix a = testing_util::RandomMatrix(120, 90, 0.04, 3);
  const CsrMatrix b = testing_util::RandomMatrix(90, 150, 0.05, 4);
  ExpectBandsBracketExact(BuildWorkload(a, b), BuildWorkloadEstimated(a, b));
}

TEST(NnzEstimatorTest, FullSampleFractionIsExactEverywhere) {
  const CsrMatrix a = testing_util::SkewedMatrix(200, 96, 7);
  const Workload exact = BuildWorkload(a, a);
  EstimatorOptions options;
  options.sample_fraction = 1.0;
  const EstimatedWorkload est = BuildWorkloadEstimated(a, a, options);
  EXPECT_DOUBLE_EQ(est.confidence, 1.0);
  EXPECT_EQ(est.sampled_rows, a.rows());
  for (size_t r = 0; r < exact.row_chat.size(); ++r) {
    ASSERT_TRUE(est.row_exact[r]) << "row " << r;
    EXPECT_EQ(est.workload.row_chat[r], exact.row_chat[r]) << "row " << r;
    EXPECT_EQ(est.workload.row_c_est[r], exact.row_c_est[r]) << "row " << r;
  }
  EXPECT_EQ(est.workload.output_nnz, exact.output_nnz);
}

TEST(NnzEstimatorTest, DeterministicAcrossCalls) {
  const CsrMatrix a = testing_util::SkewedMatrix(300, 128, 5);
  const EstimatedWorkload x = BuildWorkloadEstimated(a, a);
  const EstimatedWorkload y = BuildWorkloadEstimated(a, a);
  EXPECT_EQ(x.workload.row_chat, y.workload.row_chat);
  EXPECT_EQ(x.workload.row_c_est, y.workload.row_c_est);
  EXPECT_EQ(x.row_chat_lo, y.row_chat_lo);
  EXPECT_EQ(x.row_chat_hi, y.row_chat_hi);
  EXPECT_EQ(x.row_exact, y.row_exact);
  EXPECT_DOUBLE_EQ(x.confidence, y.confidence);
  EXPECT_EQ(x.sampled_rows, y.sampled_rows);
}

TEST(NnzEstimatorTest, HubCountZeroStillBracketsExact) {
  const CsrMatrix a = testing_util::SkewedMatrix(256, 100, 9);
  const Workload exact = BuildWorkload(a, a);
  EstimatorOptions options;
  options.hub_rows = 0;  // every B row is "light": widest valid bands
  ExpectBandsBracketExact(exact, BuildWorkloadEstimated(a, a, options));
}

TEST(NnzEstimatorTest, HubCountAboveRowsBracketsExact) {
  const CsrMatrix a = testing_util::SkewedMatrix(128, 64, 13);
  EstimatorOptions options;
  options.hub_rows = 1 << 20;  // more hubs than rows: degenerates safely
  ExpectBandsBracketExact(BuildWorkload(a, a),
                          BuildWorkloadEstimated(a, a, options));
}

TEST(NnzEstimatorTest, WiderAThanBKeepsBandsSound) {
  // a.cols() > b.rows(): A columns past B's end contribute nothing; the
  // light-entry lower bound must drop to zero for those rows rather than
  // assume every light entry hits a real B row.
  sparse::CooMatrix coo_a(6, 12);
  for (sparse::Index r = 0; r < 6; ++r) {
    coo_a.Add(r, r, 1.0);
    coo_a.Add(r, static_cast<sparse::Index>(11 - r), 1.0);  // past b.rows()
  }
  sparse::CooMatrix coo_b(4, 5);
  for (sparse::Index r = 0; r < 4; ++r) {
    for (sparse::Index c = 0; c < 5; ++c) coo_b.Add(r, c, 1.0);
  }
  auto a = CsrMatrix::FromCoo(coo_a);
  auto b = CsrMatrix::FromCoo(coo_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EstimatorOptions options;
  options.min_sample_rows = 1;
  options.sample_fraction = 1e-9;  // force the estimated path
  ExpectBandsBracketExact(BuildWorkload(*a, *b),
                          BuildWorkloadEstimated(*a, *b, options));
}

TEST(NnzEstimatorTest, EmptyOperandsAreExactWithFullConfidence) {
  sparse::CooMatrix coo(0, 0);
  auto empty = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(empty.ok());
  const EstimatedWorkload est = BuildWorkloadEstimated(*empty, *empty);
  EXPECT_DOUBLE_EQ(est.confidence, 1.0);
  EXPECT_EQ(est.workload.flops, 0);
  EXPECT_EQ(est.workload.output_nnz, 0);
  EXPECT_TRUE(est.workload.pair_work.empty());
}

/// A narrow hub table with few sampled rows: most rows stay estimated
/// and many bands are wide, so the classifier's rescans have work to do.
EstimatorOptions NarrowOptions() {
  EstimatorOptions options;
  options.hub_rows = 8;
  options.min_sample_rows = 8;
  return options;
}

TEST(NnzEstimatorTest, ClassifyEstimatedSatisfiesHardInvariant) {
  const core::ReorganizerConfig config;
  for (uint64_t seed : {2u, 17u, 23u}) {
    const CsrMatrix a = testing_util::SkewedMatrix(350, 140, seed);
    const Workload exact = BuildWorkload(a, a);
    for (const EstimatorOptions& options :
         {EstimatorOptions{}, NarrowOptions()}) {
      EstimatedWorkload est = BuildWorkloadEstimated(a, a, options);
      const core::Classification classes =
          core::ClassifyEstimated(&est, a, a, config);
      const Status invariant =
          verify::CheckEstimatedClassification(exact, est, classes);
      EXPECT_TRUE(invariant.ok()) << "seed " << seed << " hubs "
                                  << options.hub_rows << ": "
                                  << invariant.ToString();
    }
  }
}

TEST(NnzEstimatorTest, ClassifyEstimatedMatchesExactBins) {
  // The pair side of the estimate is exact, so with identical thresholds
  // the dominator / low-performer / normal bins must match the exact
  // classifier bin for bin; rows whose band straddles the limiting
  // threshold are rescanned, so the limited rows match too.
  const core::ReorganizerConfig config;
  struct Case {
    CsrMatrix a;
    CsrMatrix b;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {29u, 5u, 41u, 77u}) {
    const CsrMatrix skewed = testing_util::SkewedMatrix(300, 120, seed);
    cases.push_back({skewed, skewed});
    cases.push_back({testing_util::RandomMatrix(200, 90, 0.04, seed),
                     testing_util::RandomMatrix(90, 160, 0.05, seed + 1)});
  }
  int64_t rescanned = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Workload exact = BuildWorkload(c.a, c.b);
    const core::Classification want = core::Classify(exact, config);
    for (const EstimatorOptions& options :
         {EstimatorOptions{}, NarrowOptions()}) {
      SCOPED_TRACE(::testing::Message() << "case " << i << " hubs "
                                        << options.hub_rows);
      EstimatedWorkload est = BuildWorkloadEstimated(c.a, c.b, options);
      const int64_t exact_before =
          std::accumulate(est.row_exact.begin(), est.row_exact.end(), 0);
      const core::Classification got =
          core::ClassifyEstimated(&est, c.a, c.b, config);
      rescanned +=
          std::accumulate(est.row_exact.begin(), est.row_exact.end(), 0) -
          exact_before;
      EXPECT_EQ(got.dominator_threshold, want.dominator_threshold);
      EXPECT_EQ(got.limit_row_threshold, want.limit_row_threshold);
      EXPECT_EQ(got.dominators, want.dominators);
      EXPECT_EQ(got.low_performers, want.low_performers);
      EXPECT_EQ(got.normals, want.normals);
      EXPECT_EQ(got.limited_rows, want.limited_rows);
    }
  }
  EXPECT_GT(rescanned, 0) << "no row band straddled the threshold";
}

TEST(NnzEstimatorTest, ClassifierFallbackNeverLowersConfidence) {
  const core::ReorganizerConfig config;
  const CsrMatrix a = testing_util::SkewedMatrix(300, 120, 31);
  EstimatedWorkload est = BuildWorkloadEstimated(a, a);
  const double before = est.confidence;
  (void)core::ClassifyEstimated(&est, a, a, config);
  // Straddle fallbacks convert estimated mass to exact mass; the refresh
  // may only move confidence up (to at most 1).
  EXPECT_GE(est.confidence, before - 1e-12);
  EXPECT_LE(est.confidence, 1.0);
}

}  // namespace
}  // namespace spgemm
}  // namespace spnet
