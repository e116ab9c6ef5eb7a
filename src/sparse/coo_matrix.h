#ifndef SPNET_SPARSE_COO_MATRIX_H_
#define SPNET_SPARSE_COO_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sparse/types.h"

namespace spnet {
namespace sparse {

/// Coordinate-format sparse matrix: an unordered list of (row, col, value)
/// triplets. This is the interchange format used by generators and by
/// Matrix Market I/O; algorithms operate on the compressed formats.
class CooMatrix {
 public:
  CooMatrix() = default;
  CooMatrix(Index rows, Index cols) : rows_(rows), cols_(cols) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Offset nnz() const { return static_cast<Offset>(row_.size()); }

  const std::vector<Index>& row_indices() const { return row_; }
  const std::vector<Index>& col_indices() const { return col_; }
  const std::vector<Value>& values() const { return val_; }

  /// Appends a triplet. Bounds are validated by Validate()/ToCsr(), not
  /// here, so generators can fill batches cheaply.
  void Add(Index row, Index col, Value value) {
    row_.push_back(row);
    col_.push_back(col);
    val_.push_back(value);
  }

  void Reserve(Offset n) {
    row_.reserve(static_cast<size_t>(n));
    col_.reserve(static_cast<size_t>(n));
    val_.reserve(static_cast<size_t>(n));
  }

  /// Sorts triplets by (row, col) and sums duplicates in place.
  void SortAndCombine();

  /// Checks that all indices are within [0, rows) x [0, cols).
  Status Validate() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_;
  std::vector<Index> col_;
  std::vector<Value> val_;
};

}  // namespace sparse
}  // namespace spnet

#endif  // SPNET_SPARSE_COO_MATRIX_H_
