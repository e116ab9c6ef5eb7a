#include "graph/analytics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sparse/operations.h"

namespace spnet {
namespace graph {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;

namespace {

Status CheckSquare(const CsrMatrix& a, const char* what) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument(std::string(what) +
                                   " needs a square adjacency matrix");
  }
  return Status::Ok();
}

/// L2-normalizes each row of a.
CsrMatrix L2RowNormalize(const CsrMatrix& a) {
  std::vector<Value> val(a.values());
  size_t cursor = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    double norm = 0.0;
    for (Offset k = 0; k < row.size; ++k) {
      norm += static_cast<double>(row.values[k]) * row.values[k];
    }
    norm = std::sqrt(norm);
    for (Offset k = 0; k < row.size; ++k, ++cursor) {
      if (norm > 0.0) val[cursor] /= norm;
    }
  }
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                     std::move(val));
  return std::move(result).value();
}

/// Replaces all stored values with 1.0.
CsrMatrix Binarize(const CsrMatrix& a) {
  std::vector<Value> val(a.values().size(), 1.0);
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                     std::move(val));
  return std::move(result).value();
}

/// Removes the diagonal entries of a square matrix.
CsrMatrix DropDiagonal(const CsrMatrix& a) {
  std::vector<Offset> ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      if (row.indices[k] == r) continue;
      idx.push_back(row.indices[k]);
      val.push_back(row.values[k]);
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(idx.size());
  }
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), std::move(ptr),
                                     std::move(idx), std::move(val));
  return std::move(result).value();
}

/// Undirected view of a possibly directed adjacency: the binarized
/// pattern of A ∨ Aᵀ. On an already symmetric pattern this is a no-op
/// (beyond binarization), so undirected callers see unchanged results.
CsrMatrix SymmetrizePattern(const CsrMatrix& a) {
  const CsrMatrix bin = Binarize(a);
  auto sum = sparse::Add(bin, bin.Transpose());
  return Binarize(std::move(sum).value());  // same square shape, cannot fail
}

}  // namespace

Result<PageRankResult> PageRank(const CsrMatrix& adjacency,
                                const PageRankOptions& options) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "PageRank"));
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  const Index n = adjacency.rows();
  if (n == 0) {
    return PageRankResult{};
  }
  // Random-walk transition matrix: rows normalized to 1.
  const CsrMatrix p = sparse::RowNormalize(adjacency);
  std::vector<bool> dangling(static_cast<size_t>(n), false);
  for (Index r = 0; r < n; ++r) {
    if (p.RowNnz(r) == 0) dangling[static_cast<size_t>(r)] = true;
  }

  PageRankResult result;
  result.scores.assign(static_cast<size_t>(n), 1.0 / n);
  std::vector<Value> next;
  for (int it = 0; it < options.max_iterations; ++it) {
    // next = d * P^T * scores (+ dangling mass) + (1 - d)/n.
    SPNET_ASSIGN_OR_RETURN(next, sparse::SpMvTranspose(p, result.scores));
    double dangling_mass = 0.0;
    for (Index r = 0; r < n; ++r) {
      if (dangling[static_cast<size_t>(r)]) {
        dangling_mass += result.scores[static_cast<size_t>(r)];
      }
    }
    const double base =
        (1.0 - options.damping) / n + options.damping * dangling_mass / n;
    double residual = 0.0;
    for (Index i = 0; i < n; ++i) {
      const double updated =
          base + options.damping * next[static_cast<size_t>(i)];
      residual += std::fabs(updated - result.scores[static_cast<size_t>(i)]);
      next[static_cast<size_t>(i)] = updated;
    }
    result.scores.swap(next);
    result.iterations = it + 1;
    result.residual = residual;
    if (residual < options.tolerance) break;
  }
  return result;
}

Result<CsrMatrix> CosineSimilarity(const CsrMatrix& a,
                                   const spgemm::SpGemmAlgorithm& algorithm,
                                   Index top_k) {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  const CsrMatrix normalized = L2RowNormalize(a);
  const CsrMatrix nt = normalized.Transpose();
  SPNET_ASSIGN_OR_RETURN(CsrMatrix similarity,
                         algorithm.Compute(normalized, nt));
  similarity.SortRows();
  return sparse::TopKPerRow(DropDiagonal(similarity), top_k);
}

Result<CsrMatrix> KHopReachability(const CsrMatrix& adjacency,
                                   const spgemm::SpGemmAlgorithm& algorithm,
                                   int hops) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "KHopReachability"));
  if (hops < 1) {
    return Status::InvalidArgument("hops must be >= 1");
  }
  // reach = pattern of (A + I)^hops via repeated squaring; binarizing
  // after every multiply keeps values from exploding and the pattern
  // exact.
  SPNET_ASSIGN_OR_RETURN(
      CsrMatrix reach,
      sparse::Add(Binarize(adjacency), sparse::Identity(adjacency.rows())));
  reach = Binarize(reach);
  CsrMatrix base = reach;
  int covered = 1;
  while (covered < hops) {
    if (2 * covered <= hops) {
      SPNET_ASSIGN_OR_RETURN(reach, algorithm.Compute(reach, reach));
      covered *= 2;
    } else {
      SPNET_ASSIGN_OR_RETURN(reach, algorithm.Compute(reach, base));
      covered += 1;
    }
    reach.SortRows();
    reach = Binarize(reach);
  }
  return reach;
}

Result<int64_t> CountTriangles(const CsrMatrix& adjacency,
                               const spgemm::SpGemmAlgorithm& algorithm) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "CountTriangles"));
  const CsrMatrix a = DropDiagonal(SymmetrizePattern(adjacency));
  SPNET_ASSIGN_OR_RETURN(CsrMatrix a2, algorithm.Compute(a, a));
  a2.SortRows();
  SPNET_ASSIGN_OR_RETURN(CsrMatrix masked, sparse::Hadamard(a2, a));
  const double total = static_cast<double>(sparse::EntrySum(masked));
  return static_cast<int64_t>(std::llround(total / 6.0));
}

Result<CsrMatrix> CommonNeighborScores(
    const CsrMatrix& adjacency, const spgemm::SpGemmAlgorithm& algorithm,
    Index top_k) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "CommonNeighborScores"));
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  const CsrMatrix a = DropDiagonal(SymmetrizePattern(adjacency));
  SPNET_ASSIGN_OR_RETURN(CsrMatrix a2, algorithm.Compute(a, a));
  a2.SortRows();
  // Mask out existing edges: candidates = A^2 - (A^2 .* A), then drop the
  // diagonal (a node trivially shares all its neighbors with itself).
  SPNET_ASSIGN_OR_RETURN(CsrMatrix overlap, sparse::Hadamard(a2, a));
  SPNET_ASSIGN_OR_RETURN(CsrMatrix candidates,
                         sparse::Add(a2, overlap, 1.0, -1.0));
  candidates = sparse::DropEntries(DropDiagonal(candidates));
  return sparse::TopKPerRow(candidates, top_k);
}

namespace {

/// The matrices whose rows a traversal expands for the given direction:
/// the adjacency itself (out-edges), its transpose (in-edges), or both.
/// `reverse` is only materialized when needed.
std::vector<const CsrMatrix*> TraversalEdges(const CsrMatrix& adjacency,
                                             CsrMatrix* reverse,
                                             EdgeDirection direction) {
  switch (direction) {
    case EdgeDirection::kOut:
      return {&adjacency};
    case EdgeDirection::kIn:
      *reverse = adjacency.Transpose();
      return {reverse};
    case EdgeDirection::kBoth:
      *reverse = adjacency.Transpose();
      return {&adjacency, reverse};
  }
  return {&adjacency};
}

}  // namespace

Result<std::vector<int>> BfsLevels(const CsrMatrix& adjacency, Index source,
                                   EdgeDirection direction) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "BfsLevels"));
  if (source < 0 || source >= adjacency.rows()) {
    return Status::OutOfRange("BFS source out of range");
  }
  CsrMatrix reverse;
  const std::vector<const CsrMatrix*> edges =
      TraversalEdges(adjacency, &reverse, direction);
  std::vector<int> level(static_cast<size_t>(adjacency.rows()), -1);
  std::vector<Index> frontier = {source};
  level[static_cast<size_t>(source)] = 0;
  int depth = 0;
  std::vector<Index> next;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (Index u : frontier) {
      for (const CsrMatrix* m : edges) {
        const SpanView row = m->Row(u);
        for (Offset k = 0; k < row.size; ++k) {
          const Index v = row.indices[k];
          if (level[static_cast<size_t>(v)] == -1) {
            level[static_cast<size_t>(v)] = depth;
            next.push_back(v);
          }
        }
      }
    }
    frontier.swap(next);
  }
  return level;
}

Result<std::vector<Index>> ConnectedComponents(const CsrMatrix& adjacency,
                                               EdgeDirection direction) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "ConnectedComponents"));
  const Index n = adjacency.rows();
  CsrMatrix reverse;
  const std::vector<const CsrMatrix*> edges =
      TraversalEdges(adjacency, &reverse, direction);
  std::vector<Index> label(static_cast<size_t>(n), -1);
  std::vector<Index> stack;
  for (Index root = 0; root < n; ++root) {
    if (label[static_cast<size_t>(root)] != -1) continue;
    // Depth-first flood along the requested edge direction. With kBoth
    // this partitions into weakly-connected components; with kOut/kIn on
    // a directed graph it is a deterministic reachability flood from
    // ascending roots (not an equivalence relation — see the header).
    label[static_cast<size_t>(root)] = root;
    stack.assign(1, root);
    while (!stack.empty()) {
      const Index u = stack.back();
      stack.pop_back();
      for (const CsrMatrix* m : edges) {
        const SpanView row = m->Row(u);
        for (Offset k = 0; k < row.size; ++k) {
          const Index v = row.indices[k];
          if (label[static_cast<size_t>(v)] == -1) {
            label[static_cast<size_t>(v)] = root;
            stack.push_back(v);
          }
        }
      }
    }
  }
  return label;
}

Result<CsrMatrix> JaccardSimilarity(const CsrMatrix& adjacency,
                                    const spgemm::SpGemmAlgorithm& algorithm) {
  SPNET_RETURN_IF_ERROR(CheckSquare(adjacency, "JaccardSimilarity"));
  const CsrMatrix a = DropDiagonal(SymmetrizePattern(adjacency));
  SPNET_ASSIGN_OR_RETURN(CsrMatrix a2, algorithm.Compute(a, a));
  a2.SortRows();
  // Intersections for adjacent pairs only.
  SPNET_ASSIGN_OR_RETURN(CsrMatrix overlap, sparse::Hadamard(a2, a));
  // J = |∩| / (deg(u) + deg(v) - |∩|), rewritten per stored entry.
  std::vector<Value> values(overlap.values());
  size_t cursor = 0;
  for (Index u = 0; u < overlap.rows(); ++u) {
    const SpanView row = overlap.Row(u);
    const double du = static_cast<double>(a.RowNnz(u));
    for (Offset k = 0; k < row.size; ++k, ++cursor) {
      const double dv = static_cast<double>(a.RowNnz(row.indices[k]));
      const double inter = row.values[k];
      const double uni = du + dv - inter;
      values[cursor] = uni > 0.0 ? inter / uni : 0.0;
    }
  }
  return CsrMatrix::FromParts(overlap.rows(), overlap.cols(), overlap.ptr(),
                              overlap.indices(), std::move(values));
}

}  // namespace graph
}  // namespace spnet
