#ifndef SPNET_GRAPH_ANALYTICS_H_
#define SPNET_GRAPH_ANALYTICS_H_

#include <vector>

#include "common/status.h"
#include "sparse/csr_matrix.h"
#include "spgemm/algorithm.h"

namespace spnet {
namespace graph {

/// The network-analysis kernels the paper's introduction motivates
/// (ranking, similarity computation, recommendation), built on the
/// library's sparse primitives and — where they are spGEMM-shaped — on a
/// pluggable SpGemmAlgorithm so the Block Reorganizer accelerates them.

/// Which edges a traversal follows on a (possibly directed) adjacency.
enum class EdgeDirection {
  kOut,   ///< out-edges only: step u → v when A[u,v] != 0
  kIn,    ///< in-edges only: step u → v when A[v,u] != 0
  kBoth,  ///< either direction, i.e. the underlying undirected graph
};

/// PageRank options.
struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 100;
  /// L1 change below which iteration stops.
  double tolerance = 1e-9;
};

struct PageRankResult {
  std::vector<sparse::Value> scores;  ///< length = nodes, sums to ~1
  int iterations = 0;
  double residual = 0.0;  ///< final L1 change
};

/// Power-iteration PageRank on the (possibly weighted) adjacency matrix.
/// Dangling nodes redistribute uniformly.
Result<PageRankResult> PageRank(const sparse::CsrMatrix& adjacency,
                                const PageRankOptions& options = {});

/// Cosine similarity between the rows of `a` (users, documents, nodes):
/// S = N * N^T with N the L2-row-normalized matrix — an spGEMM, executed
/// through `algorithm`. Keeps only the `top_k` most similar peers per row
/// and drops self-similarity.
Result<sparse::CsrMatrix> CosineSimilarity(
    const sparse::CsrMatrix& a, const spgemm::SpGemmAlgorithm& algorithm,
    sparse::Index top_k = 10);

/// Nodes reachable within `hops` steps of each node: the boolean pattern
/// of (A + I)^hops, computed by repeated squaring through `algorithm`.
/// Values in the result are 1.0. `hops` must be >= 1.
Result<sparse::CsrMatrix> KHopReachability(
    const sparse::CsrMatrix& adjacency,
    const spgemm::SpGemmAlgorithm& algorithm, int hops);

/// Counts triangles of the *undirected* simple graph underlying
/// `adjacency`: a directed (asymmetric) input is symmetrized internally
/// via the binarized pattern of A ∨ Aᵀ and the diagonal is dropped, so
/// u–v–w counts as a triangle when each pair is connected in at least one
/// direction. Computes sum(A .* A²) / 6 with A² through `algorithm`; the
/// count is exact (integer sums stay below 2^53).
Result<int64_t> CountTriangles(const sparse::CsrMatrix& adjacency,
                               const spgemm::SpGemmAlgorithm& algorithm);

/// Common-neighbor link prediction scores: for each node, the `top_k`
/// non-adjacent nodes sharing the most neighbors (A^2 masked by the
/// complement of A, diagonal removed). Neighborhoods are those of the
/// underlying undirected graph: a directed input is symmetrized via
/// A ∨ Aᵀ first.
Result<sparse::CsrMatrix> CommonNeighborScores(
    const sparse::CsrMatrix& adjacency,
    const spgemm::SpGemmAlgorithm& algorithm, sparse::Index top_k = 10);

/// BFS levels from `source` following `direction` edges (out-edges by
/// default, matching the historical behavior); unreachable nodes get -1.
Result<std::vector<int>> BfsLevels(
    const sparse::CsrMatrix& adjacency, sparse::Index source,
    EdgeDirection direction = EdgeDirection::kOut);

/// Component labels from flood-fill over `direction` edges, rooted at
/// ascending node ids; label[i] is the smallest node id in i's component.
/// The default kBoth symmetrizes (via the transpose) and yields the
/// standard weakly-connected components of a directed graph — the
/// historical behavior. kOut/kIn give deterministic reachability
/// partitions instead: on a directed graph one-directional reachability
/// is not an equivalence relation, so a node is labeled by the first
/// (lowest-id) root that reaches it.
Result<std::vector<sparse::Index>> ConnectedComponents(
    const sparse::CsrMatrix& adjacency,
    EdgeDirection direction = EdgeDirection::kBoth);

/// Jaccard similarity of node neighborhoods for every adjacent pair:
/// J(u, v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|, with the intersection counts
/// computed as the spGEMM A^2 masked by A through `algorithm`.
/// Neighborhoods and adjacency are those of the underlying undirected
/// graph: a directed input is symmetrized via A ∨ Aᵀ first (previously an
/// asymmetric input silently produced wrong overlap/degree math).
Result<sparse::CsrMatrix> JaccardSimilarity(
    const sparse::CsrMatrix& adjacency,
    const spgemm::SpGemmAlgorithm& algorithm);

}  // namespace graph
}  // namespace spnet

#endif  // SPNET_GRAPH_ANALYTICS_H_
