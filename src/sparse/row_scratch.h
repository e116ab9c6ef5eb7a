#ifndef SPNET_SPARSE_ROW_SCRATCH_H_
#define SPNET_SPARSE_ROW_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "sparse/types.h"

namespace spnet {
namespace sparse {

/// Dense-accumulator scratch for the reference Gustavson (ReferenceSpGemm)
/// and CsrApproxEqual. The host SpGEMM kernel keeps its own accumulator, so
/// the oracle stays independent of the code it checks. It holds a value
/// accumulator, a byte-per-column touched bitmap (uint8_t, not
/// std::vector<bool> — the packed-bit specialization's read-modify-write is
/// a measurable tax in the inner loop; each byte is exactly 0 or 1, so the
/// oracle can add it to an output cursor when it scans a dense row into
/// column order), and the touched-column list used to reset both in
/// O(row nnz). One RowScratch is reused across every row, so the per-row
/// cost is proportional to the row, never to the matrix width.
struct RowScratch {
  std::vector<Value> acc;
  std::vector<uint8_t> touched;
  std::vector<Index> touched_cols;

  /// Grows the dense arrays to cover `cols` columns. Newly added slots are
  /// zero/cleared; existing contents are preserved (they are clean between
  /// rows by construction).
  void EnsureCols(Index cols) {
    if (acc.size() < static_cast<size_t>(cols)) {
      acc.resize(static_cast<size_t>(cols), 0.0);
      touched.resize(static_cast<size_t>(cols), 0);
    }
  }

  /// Marks column `c` touched in the current row, listing it on first touch.
  void Touch(Index c) {
    if (!touched[static_cast<size_t>(c)]) {
      touched[static_cast<size_t>(c)] = 1;
      touched_cols.push_back(c);
    }
  }

  /// Resets the touched state after a row, in O(touched columns).
  void ResetTouched() {
    for (Index c : touched_cols) {
      acc[static_cast<size_t>(c)] = 0.0;
      touched[static_cast<size_t>(c)] = 0;
    }
    touched_cols.clear();
  }
};

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_ROW_SCRATCH_H_
