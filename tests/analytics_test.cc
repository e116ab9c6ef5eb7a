#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/block_reorganizer.h"
#include "graph/analytics.h"
#include "sparse/operations.h"
#include "tests/test_util.h"

namespace spnet {
namespace graph {
namespace {

using sparse::CooMatrix;
using sparse::CsrMatrix;
using sparse::Index;

/// Undirected cycle 0-1-2-...-(n-1)-0.
CsrMatrix Cycle(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.Add(i, (i + 1) % n, 1.0);
    coo.Add((i + 1) % n, i, 1.0);
  }
  coo.SortAndCombine();
  return std::move(CsrMatrix::FromCoo(coo)).value();
}

/// Complete graph on n nodes (no self loops).
CsrMatrix Complete(Index n) {
  CooMatrix coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (i != j) coo.Add(i, j, 1.0);
    }
  }
  return std::move(CsrMatrix::FromCoo(coo)).value();
}

core::BlockReorganizerSpGemm& Reorganizer() {
  // Leaked on purpose: shared across tests, destruction order irrelevant.
  static core::BlockReorganizerSpGemm* alg =
      new core::BlockReorganizerSpGemm();  // spnet-lint: allow(raw-new-delete)
  return *alg;
}

TEST(PageRankTest, UniformOnSymmetricCycle) {
  const CsrMatrix a = Cycle(10);
  auto pr = PageRank(a);
  ASSERT_TRUE(pr.ok());
  double sum = 0.0;
  for (double s : pr->scores) {
    EXPECT_NEAR(s, 0.1, 1e-6);
    sum += s;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_LT(pr->residual, 1e-9);
}

TEST(PageRankTest, HubOutranksLeaves) {
  // Star: all leaves point to node 0 and back.
  CooMatrix coo(9, 9);
  for (Index i = 1; i < 9; ++i) {
    coo.Add(i, 0, 1.0);
    coo.Add(0, i, 1.0);
  }
  auto a = CsrMatrix::FromCoo(coo);
  auto pr = PageRank(*a);
  ASSERT_TRUE(pr.ok());
  for (Index i = 1; i < 9; ++i) {
    EXPECT_GT(pr->scores[0], pr->scores[static_cast<size_t>(i)]);
  }
}

TEST(PageRankTest, DanglingNodesConserveMass) {
  // Node 2 has no out-edges.
  CooMatrix coo(3, 3);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 2, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto pr = PageRank(*a);
  ASSERT_TRUE(pr.ok());
  const double sum =
      std::accumulate(pr->scores.begin(), pr->scores.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, RejectsBadInput) {
  const CsrMatrix rect = testing_util::RandomMatrix(4, 5, 0.5, 1);
  EXPECT_FALSE(PageRank(rect).ok());
  PageRankOptions bad;
  bad.damping = 1.5;
  EXPECT_FALSE(PageRank(Cycle(4), bad).ok());
}

TEST(CosineSimilarityTest, IdenticalRowsScoreOne) {
  // Rows 0 and 1 identical; row 2 orthogonal.
  CooMatrix coo(3, 4);
  coo.Add(0, 0, 2.0);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 4.0);  // same direction, different magnitude
  coo.Add(1, 1, 2.0);
  coo.Add(2, 3, 5.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto s = CosineSimilarity(*a, Reorganizer(), 3);
  ASSERT_TRUE(s.ok());
  // similarity(0, 1) == 1; no entry between 0/1 and 2; no diagonal.
  const sparse::SpanView row0 = s->Row(0);
  ASSERT_EQ(row0.size, 1);
  EXPECT_EQ(row0.indices[0], 1);
  EXPECT_NEAR(row0.values[0], 1.0, 1e-9);
  EXPECT_EQ(s->RowNnz(2), 0);
}

TEST(CosineSimilarityTest, TopKBounds) {
  const CsrMatrix a = testing_util::SkewedMatrix(60, 40, 31);
  auto s = CosineSimilarity(a, Reorganizer(), 5);
  ASSERT_TRUE(s.ok());
  for (Index r = 0; r < s->rows(); ++r) {
    EXPECT_LE(s->RowNnz(r), 5);
  }
  EXPECT_FALSE(CosineSimilarity(a, Reorganizer(), 0).ok());
}

TEST(KHopTest, CycleReach) {
  const CsrMatrix a = Cycle(12);
  auto one = KHopReachability(a, Reorganizer(), 1);
  auto three = KHopReachability(a, Reorganizer(), 3);
  ASSERT_TRUE(one.ok() && three.ok());
  // 1 hop: self + 2 neighbors; 3 hops: self + 3 on each side.
  EXPECT_EQ(one->RowNnz(0), 3);
  EXPECT_EQ(three->RowNnz(0), 7);
  EXPECT_FALSE(KHopReachability(a, Reorganizer(), 0).ok());
}

TEST(KHopTest, ReachabilityIsMonotone) {
  const CsrMatrix a = testing_util::SkewedMatrix(80, 40, 33);
  auto two = KHopReachability(a, Reorganizer(), 2);
  auto four = KHopReachability(a, Reorganizer(), 4);
  ASSERT_TRUE(two.ok() && four.ok());
  EXPECT_GE(four->nnz(), two->nnz());
}

TEST(TriangleTest, KnownCounts) {
  auto cycle = CountTriangles(Cycle(8), Reorganizer());
  ASSERT_TRUE(cycle.ok());
  EXPECT_EQ(cycle.value(), 0);
  // K4 has C(4,3) = 4 triangles; K5 has 10.
  auto k4 = CountTriangles(Complete(4), Reorganizer());
  auto k5 = CountTriangles(Complete(5), Reorganizer());
  ASSERT_TRUE(k4.ok() && k5.ok());
  EXPECT_EQ(k4.value(), 4);
  EXPECT_EQ(k5.value(), 10);
}

TEST(TriangleTest, DirectedInputIsSymmetrized) {
  // Directed 3-cycle 0->1->2->0: each pair is connected in one direction,
  // so the underlying undirected graph is K3 — one triangle. The old
  // asymmetric math found zero overlap here.
  CooMatrix cyc(3, 3);
  cyc.Add(0, 1, 1.0);
  cyc.Add(1, 2, 1.0);
  cyc.Add(2, 0, 1.0);
  auto a = CsrMatrix::FromCoo(cyc);
  auto n = CountTriangles(*a, Reorganizer());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);

  // Transitive DAG triangle 0->1, 1->2, 0->2: same underlying K3.
  CooMatrix dag(3, 3);
  dag.Add(0, 1, 1.0);
  dag.Add(1, 2, 1.0);
  dag.Add(0, 2, 1.0);
  auto d = CsrMatrix::FromCoo(dag);
  auto m = CountTriangles(*d, Reorganizer());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value(), 1);
}

TEST(JaccardTest, DirectedInputIsSymmetrized) {
  // Directed 3-cycle: underlying undirected K3, so every adjacent pair
  // scores 1/3 — and the output covers both directions of each edge.
  CooMatrix cyc(3, 3);
  cyc.Add(0, 1, 1.0);
  cyc.Add(1, 2, 1.0);
  cyc.Add(2, 0, 1.0);
  auto a = CsrMatrix::FromCoo(cyc);
  auto j = JaccardSimilarity(*a, Reorganizer());
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->nnz(), 6);
  for (sparse::Value v : j->values()) {
    EXPECT_NEAR(v, 1.0 / 3.0, 1e-9);
  }
}

TEST(CommonNeighborTest, DirectedInputIsSymmetrized) {
  // One-directional path 0->1->2: undirected view is the path 0-1-2, so
  // node 0 should be predicted to link with node 2 (shared neighbor 1).
  CooMatrix coo(3, 3);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 2, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto scores = CommonNeighborScores(*a, Reorganizer(), 2);
  ASSERT_TRUE(scores.ok());
  const sparse::SpanView row0 = scores->Row(0);
  ASSERT_EQ(row0.size, 1);
  EXPECT_EQ(row0.indices[0], 2);
  EXPECT_DOUBLE_EQ(row0.values[0], 1.0);
}

TEST(CommonNeighborTest, PredictsCycleClosure) {
  // Path 0-1-2: nodes 0 and 2 share neighbor 1 and are not adjacent.
  CooMatrix coo(3, 3);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 0, 1.0);
  coo.Add(1, 2, 1.0);
  coo.Add(2, 1, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto scores = CommonNeighborScores(*a, Reorganizer(), 2);
  ASSERT_TRUE(scores.ok());
  const sparse::SpanView row0 = scores->Row(0);
  ASSERT_EQ(row0.size, 1);
  EXPECT_EQ(row0.indices[0], 2);
  EXPECT_DOUBLE_EQ(row0.values[0], 1.0);
}

TEST(CommonNeighborTest, ExcludesExistingEdges) {
  const CsrMatrix a = Complete(6);
  auto scores = CommonNeighborScores(a, Reorganizer(), 5);
  ASSERT_TRUE(scores.ok());
  // Complete graph: every pair already adjacent, nothing to predict.
  EXPECT_EQ(scores->nnz(), 0);
}


TEST(BfsTest, CycleLevels) {
  const CsrMatrix a = Cycle(8);
  auto levels = BfsLevels(a, 0);
  ASSERT_TRUE(levels.ok());
  EXPECT_EQ((*levels)[0], 0);
  EXPECT_EQ((*levels)[1], 1);
  EXPECT_EQ((*levels)[7], 1);
  EXPECT_EQ((*levels)[4], 4);  // farthest point of an 8-cycle
}

TEST(BfsTest, UnreachableIsMinusOne) {
  CooMatrix coo(4, 4);
  coo.Add(0, 1, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto levels = BfsLevels(*a, 0);
  ASSERT_TRUE(levels.ok());
  EXPECT_EQ((*levels)[1], 1);
  EXPECT_EQ((*levels)[2], -1);
  EXPECT_EQ((*levels)[3], -1);
  EXPECT_FALSE(BfsLevels(*a, 9).ok());
}

TEST(ConnectedComponentsTest, TwoIslands) {
  CooMatrix coo(6, 6);
  coo.Add(0, 1, 1.0);  // directed edge still links the component
  coo.Add(2, 1, 1.0);
  coo.Add(3, 4, 1.0);
  coo.Add(4, 5, 1.0);
  auto a = CsrMatrix::FromCoo(coo);
  auto labels = ConnectedComponents(*a);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], 0);
  EXPECT_EQ((*labels)[1], 0);
  EXPECT_EQ((*labels)[2], 0);
  EXPECT_EQ((*labels)[3], 3);
  EXPECT_EQ((*labels)[4], 3);
  EXPECT_EQ((*labels)[5], 3);
}

TEST(ConnectedComponentsTest, AgreesWithBfsOnUndirectedGraph) {
  const CsrMatrix a = Cycle(20);
  auto labels = ConnectedComponents(a);
  auto levels = BfsLevels(a, 0);
  ASSERT_TRUE(labels.ok() && levels.ok());
  for (size_t i = 0; i < labels->size(); ++i) {
    EXPECT_EQ((*labels)[i], 0);
    EXPECT_GE((*levels)[i], 0);
  }
}

TEST(BfsTest, DirectionOption) {
  // Asymmetric chain 0->1->2.
  CooMatrix coo(3, 3);
  coo.Add(0, 1, 1.0);
  coo.Add(1, 2, 1.0);
  auto a = CsrMatrix::FromCoo(coo);

  auto out = BfsLevels(*a, 2, EdgeDirection::kOut);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], -1);
  EXPECT_EQ((*out)[1], -1);
  EXPECT_EQ((*out)[2], 0);

  auto in = BfsLevels(*a, 2, EdgeDirection::kIn);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)[0], 2);
  EXPECT_EQ((*in)[1], 1);
  EXPECT_EQ((*in)[2], 0);

  auto both = BfsLevels(*a, 2, EdgeDirection::kBoth);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ((*both)[0], 2);
  EXPECT_EQ((*both)[1], 1);

  // Default stays the historical out-edges behavior.
  auto def = BfsLevels(*a, 0);
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)[2], 2);
}

TEST(ConnectedComponentsTest, DirectionOption) {
  // 0->1 and 2->1: weakly one component, but out-edge floods from 0 and 2
  // never meet node ids already claimed by a lower root.
  CooMatrix coo(3, 3);
  coo.Add(0, 1, 1.0);
  coo.Add(2, 1, 1.0);
  auto a = CsrMatrix::FromCoo(coo);

  auto both = ConnectedComponents(*a);  // default kBoth
  ASSERT_TRUE(both.ok());
  EXPECT_EQ((*both)[0], 0);
  EXPECT_EQ((*both)[1], 0);
  EXPECT_EQ((*both)[2], 0);

  auto out = ConnectedComponents(*a, EdgeDirection::kOut);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], 0);
  EXPECT_EQ((*out)[1], 0);  // claimed by root 0's flood
  EXPECT_EQ((*out)[2], 2);  // 1 already labeled, so 2 is alone

  auto in = ConnectedComponents(*a, EdgeDirection::kIn);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)[0], 0);
  EXPECT_EQ((*in)[1], 1);  // root 1 floods its in-neighbors ...
  EXPECT_EQ((*in)[2], 1);  // ... reaching the unclaimed node 2
}

TEST(JaccardTest, TriangleNeighborhoods) {
  // Triangle 0-1-2: J(u, v) for an edge = |common|/|union| = 1/3
  // (N(0)={1,2}, N(1)={0,2}: common {2}, union {0,1,2}).
  const CsrMatrix k3 = Complete(3);
  auto j = JaccardSimilarity(k3, Reorganizer());
  ASSERT_TRUE(j.ok());
  for (Index u = 0; u < 3; ++u) {
    const sparse::SpanView row = j->Row(u);
    for (sparse::Offset k = 0; k < row.size; ++k) {
      EXPECT_NEAR(row.values[k], 1.0 / 3.0, 1e-9);
    }
  }
}

TEST(JaccardTest, ValuesBounded) {
  const CsrMatrix a = testing_util::SkewedMatrix(60, 40, 35);
  auto j = JaccardSimilarity(a, Reorganizer());
  ASSERT_TRUE(j.ok());
  for (sparse::Value v : j->values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace graph
}  // namespace spnet
