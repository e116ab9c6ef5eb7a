#ifndef SPNET_SPGEMM_FUNCTIONAL_H_
#define SPNET_SPGEMM_FUNCTIONAL_H_

#include <vector>

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace spgemm {

/// Host execution of the row-product scheme: each output row expands its
/// partial products into a row buffer, then merges them with a dense
/// accumulator (Gustavson). Produces unordered CSR rows, like the paper's
/// kernels.
Result<sparse::CsrMatrix> RowProductExpandMerge(const sparse::CsrMatrix& a,
                                                const sparse::CsrMatrix& b);

/// The outer-product merge, in place. Row r of C-hat is (chat_cols,
/// chat_vals)[chat_ptr[r], chat_ptr[r+1]), every column in [0, cols). Rows
/// are summed in element order and emitted in first-touch order at an
/// offset never past the row's C-hat start, so only consumed entries are
/// overwritten. C takes over the C-hat buffers (size nnz(C), capacity
/// unchanged): peak memory is C-hat alone. Rejects a malformed layout.
Result<sparse::CsrMatrix> MergeChatInPlace(sparse::Index rows,
                                           sparse::Index cols,
                                           std::vector<sparse::Offset> chat_ptr,
                                           std::vector<sparse::Index> chat_cols,
                                           std::vector<sparse::Value> chat_vals);

/// Host execution of the outer-product scheme: the whole intermediate
/// matrix C-hat is materialized pair by pair (column i of A times row i of
/// B), relocated row-major via per-row cursors, then merged row-wise. On
/// one thread the merge is MergeChatInPlace, so C reuses C-hat's buffers.
/// Materializes flops(A,B) elements; intended for tests and moderate sizes.
Result<sparse::CsrMatrix> OuterProductExpandMerge(const sparse::CsrMatrix& a,
                                                  const sparse::CsrMatrix& b);

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_FUNCTIONAL_H_
