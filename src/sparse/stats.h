#ifndef SPNET_SPARSE_STATS_H_
#define SPNET_SPARSE_STATS_H_

#include <cstdint>
#include <vector>

#include "sparse/csr_matrix.h"
#include "sparse/types.h"

namespace spnet {
namespace sparse {

/// Summary statistics of a sparse matrix's row-degree distribution.
/// Skew metrics drive the Florida-vs-Stanford distinction in the paper:
/// sparse networks have power-law degrees (high Gini / CV), matrices from
/// physical meshes are quasi-regular (low Gini / CV).
struct DegreeStats {
  Offset min_nnz = 0;
  Offset max_nnz = 0;
  double mean_nnz = 0.0;
  double cv = 0.0;    ///< coefficient of variation (stddev / mean)
  double gini = 0.0;  ///< Gini coefficient of the degree distribution
  /// Fraction of rows with fewer than 32 nonzeros (warp size); the supply
  /// of "low performer" blocks in the paper's terminology.
  double frac_rows_below_warp = 0.0;
};

/// Computes degree statistics over the rows of m.
DegreeStats ComputeRowStats(const CsrMatrix& m);

/// Number of multiply operations of A*B: sum over nonzeros a_rc of
/// nnz(B row c). Also the size of the intermediate C-hat (before merge).
int64_t SpGemmFlops(const CsrMatrix& a, const CsrMatrix& b);

/// Per-row multiply counts of A*B (length a.rows()); row r's expansion work.
std::vector<int64_t> SpGemmRowFlops(const CsrMatrix& a, const CsrMatrix& b);

/// Per-pair outer-product workloads: for pair i (column i of A, row i of B),
/// work[i] = nnz(A col i) * nnz(B row i). This is the block-wise nnz the
/// Block Reorganizer precalculates. Length: a.cols() == b.rows().
std::vector<int64_t> OuterProductPairWork(const CsrMatrix& a,
                                          const CsrMatrix& b);

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_STATS_H_
