#ifndef SPNET_SPARSE_OPERATIONS_H_
#define SPNET_SPARSE_OPERATIONS_H_

#include <vector>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace sparse {

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
