#ifndef SPNET_SPARSE_OPERATIONS_H_
#define SPNET_SPARSE_OPERATIONS_H_

#include <vector>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace sparse {

/// y = A * x (sparse matrix, dense vector). x.size() must equal A.cols().
Result<std::vector<Value>> SpMv(const CsrMatrix& a,
                                const std::vector<Value>& x);

/// y = A^T * x without materializing the transpose.
Result<std::vector<Value>> SpMvTranspose(const CsrMatrix& a,
                                         const std::vector<Value>& x);

/// C = alpha * A + beta * B (same shape). Rows come out sorted.
Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b,
                      Value alpha = 1.0, Value beta = 1.0);

/// C = A .* B (Hadamard / element-wise product on the pattern
/// intersection). Rows come out sorted.
Result<CsrMatrix> Hadamard(const CsrMatrix& a, const CsrMatrix& b);

/// B = alpha * A.
CsrMatrix Scale(const CsrMatrix& a, Value alpha);

/// Returns the submatrix A[row_begin:row_end, col_begin:col_end)
/// (half-open ranges), reindexed to start at (0, 0).
Result<CsrMatrix> Submatrix(const CsrMatrix& a, Index row_begin,
                            Index row_end, Index col_begin, Index col_end);

/// Drops entries with |value| <= threshold (exact zeros by default).
CsrMatrix DropEntries(const CsrMatrix& a, Value threshold = 0.0);

/// Keeps only the largest-|value| `k` entries of each row. Deterministic:
/// equal magnitudes at the k boundary are broken by ascending column
/// index, so the result is independent of input entry order.
CsrMatrix TopKPerRow(const CsrMatrix& a, Index k);

/// sum_ij |a_ij|^2, square-rooted.
double FrobeniusNorm(const CsrMatrix& a);

/// Sum of all entries.
Value EntrySum(const CsrMatrix& a);

/// The n x n identity.
CsrMatrix Identity(Index n);

/// Row-normalizes a to a stochastic matrix (rows summing to 1; empty rows
/// stay empty). The PageRank/random-walk building block.
CsrMatrix RowNormalize(const CsrMatrix& a);

/// Diagonal matrix from a vector.
CsrMatrix Diagonal(const std::vector<Value>& d);

/// Extracts the diagonal of a (length min(rows, cols), zeros included).
std::vector<Value> ExtractDiagonal(const CsrMatrix& a);

/// Permutes the rows of m: row i of the result is m.Row(new_to_old[i]).
/// Within-row entry order and values are untouched. InvalidArgument unless
/// new_to_old is a bijection of [0, m.rows()).
Result<CsrMatrix> PermuteRows(const CsrMatrix& m,
                              const std::vector<Index>& new_to_old);

/// Permutes the columns of m: column new_to_old[j] becomes column j. Each
/// row is re-sorted by the new column ids; values are moved, never
/// recombined. InvalidArgument unless new_to_old is a bijection of
/// [0, m.cols()).
Result<CsrMatrix> PermuteCols(const CsrMatrix& m,
                              const std::vector<Index>& new_to_old);

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_OPERATIONS_H_
