#ifndef SPNET_DATASETS_GENERATORS_H_
#define SPNET_DATASETS_GENERATORS_H_

#include <cstdint>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace datasets {

/// R-MAT recursive graph generator (Chakrabarti et al., SDM'04), the model
/// the paper uses for all synthetic datasets (Table III). Produces a square
/// 2^scale matrix with ~edge_count distinct nonzeros distributed by the
/// (a, b, c, d) quadrant probabilities; a >> d yields power-law skew.
struct RmatParams {
  int scale = 15;
  int64_t edge_count = 0;  ///< requested edges before dedup
  double a = 0.45;
  double b = 0.15;
  double c = 0.15;
  double d = 0.25;
  uint64_t seed = 42;
  /// When true, values are uniform in (0, 1]; otherwise all 1.0.
  bool weighted = true;
  /// When true, re-draws duplicate edges (up to a bounded number of
  /// attempts) so the final nnz is close to edge_count.
  bool redraw_duplicates = true;
};

Result<sparse::CsrMatrix> GenerateRmat(const RmatParams& params);

/// Power-law bipartite generator used for the real-world network
/// stand-ins: row degrees and column picks both follow a Zipf(skew)
/// distribution, reproducing the hub structure (a few extremely dense
/// rows/columns) that creates the paper's dominator blocks. A row's
/// columns are deduplicated with a per-column row stamp; a row whose
/// sampling attempts run out is filled to its degree with the lowest
/// unused columns. Rows are written straight into CSR, sorted by column.
struct PowerLawParams {
  sparse::Index rows = 0;
  sparse::Index cols = 0;
  int64_t nnz = 0;
  /// Zipf exponent for row degrees; 0 = uniform, ~0.6-1.2 = sparse-network
  /// territory. Row i (after shuffling) gets degree proportional to
  /// rank^-row_skew.
  double row_skew = 0.8;
  /// Zipf exponent for column popularity.
  double col_skew = 0.8;
  /// When true (and the matrix is square), the same node is a hub on both
  /// its row and its column — the realistic case for social/AS networks,
  /// and what makes a few column/row pairs dominate the outer-product
  /// workload (C = A^2 flops grow superlinearly with skew).
  bool align_hubs = true;
  uint64_t seed = 42;
  bool weighted = true;
};

Result<sparse::CsrMatrix> GeneratePowerLaw(const PowerLawParams& params);

/// Quasi-regular banded generator standing in for the Florida suite's
/// FEM/mesh matrices: every row has close to the same number of nonzeros,
/// placed inside a band around the diagonal with small jitter. A row's
/// columns are deduplicated with a per-column row stamp, and a row near
/// the matrix edge may stop short of its degree when its attempts run
/// out. Rows are appended straight into CSR, sorted by column.
struct QuasiRegularParams {
  sparse::Index n = 0;
  int64_t nnz = 0;
  /// Half-width of the band as a fraction of n.
  double band_frac = 0.02;
  /// Max relative deviation of a row's degree from the mean (0 = exactly
  /// regular).
  double degree_jitter = 0.25;
  uint64_t seed = 42;
  bool weighted = true;
};

Result<sparse::CsrMatrix> GenerateQuasiRegular(const QuasiRegularParams& params);

/// Block-diagonal generator modeling community-structured networks: n is
/// carved into contiguous blocks of ~block_size nodes, and edges land only
/// inside a node's own block (uniformly, at the given fill density). The
/// resulting A*A concentrates all outer-product work inside the blocks —
/// the worst case for workload imbalance between pairs.
struct BlockDiagonalParams {
  sparse::Index n = 0;
  /// Nodes per diagonal block; the final block absorbs the remainder.
  sparse::Index block_size = 32;
  /// Fraction of each block's cells that are nonzero, in [0, 1].
  double fill = 0.25;
  uint64_t seed = 42;
  bool weighted = true;
};

Result<sparse::CsrMatrix> GenerateBlockDiagonal(
    const BlockDiagonalParams& params);

}  // namespace datasets
}  // namespace spnet

#endif  // SPNET_DATASETS_GENERATORS_H_
