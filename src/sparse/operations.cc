#include "sparse/operations.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

namespace spnet {
namespace sparse {

namespace {

/// Inverts a new->old map of n positions; InvalidArgument unless it is a
/// bijection of [0, n).
Result<std::vector<Index>> InvertPermutation(
    const std::vector<Index>& new_to_old, Index n) {
  if (static_cast<Index>(new_to_old.size()) != n) {
    return Status::InvalidArgument(
        "permutation size " + std::to_string(new_to_old.size()) +
        " does not match dimension " + std::to_string(n));
  }
  std::vector<Index> old_to_new(static_cast<size_t>(n), -1);
  for (Index i = 0; i < n; ++i) {
    const Index old_pos = new_to_old[static_cast<size_t>(i)];
    if (old_pos < 0 || old_pos >= n) {
      return Status::InvalidArgument(
          "permutation entry " + std::to_string(old_pos) + " out of [0, " +
          std::to_string(n) + ")");
    }
    if (old_to_new[static_cast<size_t>(old_pos)] != -1) {
      return Status::InvalidArgument("permutation maps position " +
                                     std::to_string(old_pos) + " twice");
    }
    old_to_new[static_cast<size_t>(old_pos)] = i;
  }
  return old_to_new;
}

}  // namespace

Result<CsrMatrix> PermuteRows(const CsrMatrix& m,
                              const std::vector<Index>& new_to_old) {
  SPNET_RETURN_IF_ERROR(InvertPermutation(new_to_old, m.rows()).status());
  const size_t rows = new_to_old.size();
  std::vector<Offset> ptr(rows + 1, 0);
  for (size_t i = 0; i < rows; ++i) {
    ptr[i + 1] = ptr[i] + m.RowNnz(new_to_old[i]);
  }
  IndexArray indices(static_cast<size_t>(m.nnz()));
  ValueArray values(static_cast<size_t>(m.nnz()));
  for (size_t i = 0; i < rows; ++i) {
    const SpanView row = m.Row(new_to_old[i]);
    const size_t out = static_cast<size_t>(ptr[i]);
    std::copy(row.indices, row.indices + row.size, indices.data() + out);
    std::copy(row.values, row.values + row.size, values.data() + out);
  }
  return CsrMatrix::FromParts(m.rows(), m.cols(), std::move(ptr),
                              std::move(indices), std::move(values));
}

Result<CsrMatrix> PermuteCols(const CsrMatrix& m,
                              const std::vector<Index>& new_to_old) {
  SPNET_ASSIGN_OR_RETURN(const std::vector<Index> old_to_new,
                         InvertPermutation(new_to_old, m.cols()));
  std::vector<Offset> ptr = m.ptr();
  IndexArray indices(static_cast<size_t>(m.nnz()));
  ValueArray values(static_cast<size_t>(m.nnz()));
  std::vector<std::pair<Index, Value>> buf;
  for (Index r = 0; r < m.rows(); ++r) {
    const SpanView row = m.Row(r);
    buf.clear();
    for (Offset k = 0; k < row.size; ++k) {
      buf.emplace_back(old_to_new[static_cast<size_t>(row.indices[k])],
                       row.values[k]);
    }
    // Values travel with their entries, never recombine; re-sorting by the
    // new ids keeps the sorted-rows builder invariant.
    std::sort(buf.begin(), buf.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    size_t out = static_cast<size_t>(ptr[static_cast<size_t>(r)]);
    for (const auto& [c, v] : buf) {
      indices[out] = c;
      values[out] = v;
      ++out;
    }
  }
  return CsrMatrix::FromParts(m.rows(), m.cols(), std::move(ptr),
                              std::move(indices), std::move(values));
}

}  // namespace sparse
}  // namespace spnet
