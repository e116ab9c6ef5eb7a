#ifndef SPNET_SPARSE_ROW_SCRATCH_H_
#define SPNET_SPARSE_ROW_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "sparse/types.h"

namespace spnet {
namespace sparse {

/// Dense-accumulator scratch for one merge worker: a value accumulator, a
/// byte-per-column touched bitmap (uint8_t, not std::vector<bool> — the
/// packed-bit specialization's read-modify-write is a measurable tax in
/// the merge inner loop), and the touched-column list used to reset both
/// in O(row nnz). One RowScratch is reused across every row a thread
/// merges, so the per-row cost is proportional to the row, never to the
/// matrix width.
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

/// A small arena of per-thread RowScratch instances, indexed by the
/// ParallelFor thread index. Allocating the whole arena up front (instead
/// of per row, or per chunk) is what kills the allocation churn the
/// serial code paid via fresh vectors.
class RowScratchArena {
 public:
  RowScratchArena(int threads, Index cols)
      : scratch_(static_cast<size_t>(threads)) {
    for (RowScratch& s : scratch_) s.EnsureCols(cols);
  }

  RowScratch& at(int thread_index) {
    return scratch_[static_cast<size_t>(thread_index)];
  }

 private:
  std::vector<RowScratch> scratch_;
};

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_ROW_SCRATCH_H_
