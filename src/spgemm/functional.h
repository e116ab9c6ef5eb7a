#ifndef SPNET_SPGEMM_FUNCTIONAL_H_
#define SPNET_SPGEMM_FUNCTIONAL_H_

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace spgemm {

/// The host kernel every algorithm's Compute runs: Gustavson's row
/// product, with expansion and merge fused. Each output row accumulates
/// A's row entries in storage order, each times B's row in storage order,
/// straight into the output row: a slot per column holds the output
/// position where the column was last accumulated, so a column whose slot
/// is before the row's start is new to the row. Its first product appends
/// it and later products add in place. The loop is branch-free, because on
/// hub rows "new column?" cannot be predicted: each product writes at a
/// mask-selected position, and a new column adds into the value loaded
/// there with its bits masked to +0.0, so the output storage is never
/// filled first and none of its old contents reaches the result. Rows come
/// out in first-touch order (unordered CSR rows, like the paper's
/// kernels). The output arrays are sparse::IndexArray/ValueArray, which
/// reuse the last large block freed and align it for huge pages. An
/// algorithm whose GPU schedule visits the contraction axis in another
/// order passes a copy of A whose rows list their entries in that order;
/// the output bits are the same for any thread count.
Result<sparse::CsrMatrix> RowProductExpandMerge(const sparse::CsrMatrix& a,
                                                const sparse::CsrMatrix& b);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_FUNCTIONAL_H_
