#ifndef SPNET_SPARSE_REFERENCE_SPGEMM_H_
#define SPNET_SPARSE_REFERENCE_SPGEMM_H_

#include "common/status.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace sparse {

/// Reference Gustavson spGEMM (dense accumulator, one-bit-per-column
/// touched set, and a touched list that each row's emit walks to clear
/// both): one serial loop at every thread count. Output rows come out
/// sorted by column: a sparse row sorts its touched list, a row dense
/// enough that it is cheaper scans the touched set's words instead. This
/// is the correctness oracle every GPU-model algorithm in this repository
/// is validated against, so it shares no code with the host kernel it
/// checks (it includes nothing from src/spgemm and keeps its own
/// RowScratch), and none of the kernel's size/scan/fill structure either.
Result<CsrMatrix> ReferenceSpGemm(const CsrMatrix& a, const CsrMatrix& b);

/// Exact nnz(C) of A*B, computed with a symbolic Gustavson pass (no
/// numeric work). Used by tests and by the precalculation benchmarks.
Result<int64_t> SpGemmExactOutputNnz(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_REFERENCE_SPGEMM_H_
