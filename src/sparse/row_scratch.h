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
/// accumulator, a one-bit-per-column touched set, and the list of the
/// current row's touched columns in first-touch order. Touching is
/// branch-free: every column is written at the list's cursor, and the
/// cursor moves on only when the column's bit was clear, so the list has
/// one spare slot for the write after a row's last new column. A caller
/// walks the list once per row and clears each listed column (Clear), so
/// one RowScratch serves every row at a cost proportional to the row.
struct RowScratch {
  explicit RowScratch(Index cols)
      : acc(static_cast<size_t>(cols), 0.0),
        touched((static_cast<size_t>(cols) + 63) / 64, 0),
        touched_cols(static_cast<size_t>(cols) + 1) {}

  /// Lists column `c` at cursor `n` and returns the cursor, advanced past
  /// it only if this is the row's first touch of `c`.
  size_t Touch(Index c, size_t n) {
    touched_cols[n] = c;
    uint64_t& word = touched[static_cast<size_t>(c) / 64];
    const uint64_t bit = uint64_t{1} << (static_cast<unsigned>(c) % 64);
    n += (word & bit) == 0;
    word |= bit;
    return n;
  }

  /// Clears listed column `c`: its accumulator and its whole bitset word,
  /// which holds only columns listed in the same row.
  void Clear(Index c) {
    acc[static_cast<size_t>(c)] = 0.0;
    touched[static_cast<size_t>(c) / 64] = 0;
  }

  std::vector<Value> acc;
  std::vector<uint64_t> touched;
  std::vector<Index> touched_cols;
};

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_ROW_SCRATCH_H_
