#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "common/parallel.h"
#include "sparse/row_scratch.h"

namespace spnet {
namespace sparse {

namespace {

void ReleaseUnusedTails(const IndexArray& indices, const ValueArray& values) {
  ReleaseUnusedTail(indices);
  ReleaseUnusedTail(values);
}

}  // namespace

CsrMatrix::CsrMatrix(const CsrMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      ptr_(other.ptr_),
      indices_(other.indices_),
      values_(other.values_),
      fingerprint_(other.fingerprint_.load(std::memory_order_relaxed)) {}

CsrMatrix::CsrMatrix(CsrMatrix&& other) noexcept { *this = std::move(other); }

CsrMatrix& CsrMatrix::operator=(const CsrMatrix& other) {
  return *this = CsrMatrix(other);
}

CsrMatrix& CsrMatrix::operator=(CsrMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  ptr_ = std::exchange(other.ptr_, {});
  indices_ = std::exchange(other.indices_, {});
  values_ = std::exchange(other.values_, {});
  fingerprint_.store(other.fingerprint_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  other.fingerprint_.store(0, std::memory_order_relaxed);
  return *this;
}

Result<CsrMatrix> CsrMatrix::FromCoo(const CooMatrix& coo) {
  SPNET_RETURN_IF_ERROR(coo.Validate());
  CooMatrix sorted = coo;
  sorted.SortAndCombine();

  CsrMatrix m;
  m.rows_ = sorted.rows();
  m.cols_ = sorted.cols();
  m.ptr_.assign(static_cast<size_t>(m.rows_) + 1, 0);
  const auto& ri = sorted.row_indices();
  const auto& ci = sorted.col_indices();
  const auto& vv = sorted.values();
  for (Index r : ri) m.ptr_[static_cast<size_t>(r) + 1]++;
  for (size_t r = 0; r < static_cast<size_t>(m.rows_); ++r) {
    m.ptr_[r + 1] += m.ptr_[r];
  }
  m.indices_.assign(ci.begin(), ci.end());
  m.values_.assign(vv.begin(), vv.end());
  ReleaseUnusedTails(m.indices_, m.values_);
  return m;
}

Result<CsrMatrix> CsrMatrix::FromParts(Index rows, Index cols,
                                       std::vector<Offset> ptr,
                                       IndexArray indices,
                                       ValueArray values) {
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.ptr_ = std::move(ptr);
  m.indices_ = std::move(indices);
  m.values_ = std::move(values);
  SPNET_RETURN_IF_ERROR(m.Validate());
  ReleaseUnusedTails(m.indices_, m.values_);
  return m;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.ptr_.assign(static_cast<size_t>(cols_) + 1, 0);
  t.indices_.resize(indices_.size());
  t.values_.resize(values_.size());

  ThreadPool& pool = GlobalThreadPool();
  if (pool.threads() == 1 || rows_ == 0) {
    // Count entries per column, then prefix-sum into pointers.
    for (Index c : indices_) t.ptr_[static_cast<size_t>(c) + 1]++;
    for (size_t c = 0; c < static_cast<size_t>(cols_); ++c) {
      t.ptr_[c + 1] += t.ptr_[c];
    }
    // Scatter. `cursor` tracks the next free slot per output row; rows of
    // the transpose come out sorted because we scan input rows in order.
    std::vector<Offset> cursor(t.ptr_.begin(), t.ptr_.end() - 1);
    for (Index r = 0; r < rows_; ++r) {
      for (Offset k = ptr_[r]; k < ptr_[r + 1]; ++k) {
        const Index c = indices_[static_cast<size_t>(k)];
        const Offset slot = cursor[static_cast<size_t>(c)]++;
        t.indices_[static_cast<size_t>(slot)] = r;
        t.values_[static_cast<size_t>(slot)] = values_[static_cast<size_t>(k)];
      }
    }
    ReleaseUnusedTails(t.indices_, t.values_);
    return t;
  }

  // Parallel count-scan-scatter over contiguous row chunks (one histogram
  // per chunk). The serial scatter order within a column is input-row
  // order; reserving each chunk its exact sub-range per column reproduces
  // that layout bit-for-bit for any thread count.
  const int64_t grain = GrainForChunkPerThread(rows_, pool.threads());
  const int64_t num_chunks = CeilDiv(rows_, grain);
  std::vector<std::vector<Offset>> chunk_counts(
      static_cast<size_t>(num_chunks));

  SPNET_CHECK_OK(pool.ParallelFor(0, rows_, grain,
                   [&](int64_t row_begin, int64_t row_end, int) {
                     std::vector<Offset>& counts =
                         chunk_counts[static_cast<size_t>(row_begin / grain)];
                     counts.assign(static_cast<size_t>(cols_), 0);
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       for (Offset k = ptr_[static_cast<size_t>(r)];
                            k < ptr_[static_cast<size_t>(r) + 1]; ++k) {
                         counts[static_cast<size_t>(
                             indices_[static_cast<size_t>(k)])]++;
                       }
                     }
                     return Status::Ok();
                   }));

  // Scan: column totals into pointers, then per-chunk starting cursors
  // (chunk k writes column c at ptr[c] + sum of earlier chunks' counts).
  std::vector<std::vector<Offset>> chunk_cursor(
      static_cast<size_t>(num_chunks),
      std::vector<Offset>(static_cast<size_t>(cols_)));
  Offset running = 0;
  for (size_t c = 0; c < static_cast<size_t>(cols_); ++c) {
    t.ptr_[c] = running;
    for (size_t k = 0; k < static_cast<size_t>(num_chunks); ++k) {
      chunk_cursor[k][c] = running;
      running += chunk_counts[k][c];
    }
  }
  t.ptr_[static_cast<size_t>(cols_)] = running;

  // Scatter, same chunking as the count pass.
  SPNET_CHECK_OK(pool.ParallelFor(0, rows_, grain,
                   [&](int64_t row_begin, int64_t row_end, int) {
                     std::vector<Offset>& cursor =
                         chunk_cursor[static_cast<size_t>(row_begin / grain)];
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       for (Offset k = ptr_[static_cast<size_t>(r)];
                            k < ptr_[static_cast<size_t>(r) + 1]; ++k) {
                         const Index c = indices_[static_cast<size_t>(k)];
                         const Offset slot = cursor[static_cast<size_t>(c)]++;
                         t.indices_[static_cast<size_t>(slot)] =
                             static_cast<Index>(r);
                         t.values_[static_cast<size_t>(slot)] =
                             values_[static_cast<size_t>(k)];
                       }
                     }
                     return Status::Ok();
                   }));
  ReleaseUnusedTails(t.indices_, t.values_);
  return t;
}

void CsrMatrix::SortRows() {
  fingerprint_.store(0, std::memory_order_relaxed);
  std::vector<std::pair<Index, Value>> buf;
  for (Index r = 0; r < rows_; ++r) {
    const Offset begin = ptr_[r];
    const Offset end = ptr_[r + 1];
    buf.clear();
    for (Offset k = begin; k < end; ++k) {
      buf.emplace_back(indices_[static_cast<size_t>(k)],
                       values_[static_cast<size_t>(k)]);
    }
    std::sort(buf.begin(), buf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (Offset k = begin; k < end; ++k) {
      indices_[static_cast<size_t>(k)] = buf[static_cast<size_t>(k - begin)].first;
      values_[static_cast<size_t>(k)] = buf[static_cast<size_t>(k - begin)].second;
    }
  }
}

bool CsrMatrix::RowsSorted() const {
  for (Index r = 0; r < rows_; ++r) {
    for (Offset k = ptr_[r] + 1; k < ptr_[r + 1]; ++k) {
      if (indices_[static_cast<size_t>(k - 1)] >=
          indices_[static_cast<size_t>(k)]) {
        return false;
      }
    }
  }
  return true;
}

Status CsrMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative dimension");
  }
  if (ptr_.size() != static_cast<size_t>(rows_) + 1) {
    return Status::InvalidArgument(
        "ptr size " + std::to_string(ptr_.size()) + " != rows+1 " +
        std::to_string(rows_ + 1));
  }
  if (!ptr_.empty() && ptr_.front() != 0) {
    return Status::InvalidArgument("ptr[0] != 0");
  }
  for (size_t r = 0; r + 1 < ptr_.size(); ++r) {
    if (ptr_[r] > ptr_[r + 1]) {
      return Status::InvalidArgument("ptr not monotone at row " +
                                     std::to_string(r));
    }
  }
  if (!ptr_.empty() &&
      ptr_.back() != static_cast<Offset>(indices_.size())) {
    return Status::InvalidArgument("ptr.back() != indices.size()");
  }
  if (indices_.size() != values_.size()) {
    return Status::InvalidArgument("indices/values size mismatch");
  }
  // A branch-free pass that vectorizes: a negative index wraps to a large
  // unsigned value, so one unsigned compare catches both ends of the range.
  // Only a failing pass pays for the early-exit loop that names the index.
  using UIndex = std::make_unsigned_t<Index>;
  const UIndex bound = static_cast<UIndex>(cols_);
  UIndex out_of_range = 0;
  for (Index c : indices_) out_of_range |= static_cast<UIndex>(c) >= bound;
  if (out_of_range == 0) return Status::Ok();
  for (Index c : indices_) {
    if (c < 0 || c >= cols_) {
      return Status::OutOfRange("column index " + std::to_string(c) +
                                " out of [0, " + std::to_string(cols_) + ")");
    }
  }
  return Status::Ok();
}

CscMatrix CscMatrix::FromCsr(const CsrMatrix& a) {
  CscMatrix m;
  m.rows_ = a.rows();
  m.cols_ = a.cols();
  m.t_ = a.Transpose();
  return m;
}

bool CsrApproxEqual(const CsrMatrix& a, const CsrMatrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  RowScratch s(a.cols());
  // Adds `sign` times a row into the accumulator (duplicates tolerated).
  size_t n = 0;
  auto accumulate = [&s, &n](const SpanView& row, Value sign) {
    for (Offset k = 0; k < row.size; ++k) {
      const Index c = row.indices[k];
      n = s.Touch(c, n);
      s.acc[static_cast<size_t>(c)] += sign * row.values[k];
    }
  };
  for (Index r = 0; r < a.rows(); ++r) {
    // Row r of a minus row r of b must be ~0 at every touched position.
    n = 0;
    accumulate(a.Row(r), 1.0);
    accumulate(b.Row(r), -1.0);
    bool row_ok = true;
    for (size_t k = 0; k < n; ++k) {
      const Index c = s.touched_cols[k];
      if (std::fabs(s.acc[static_cast<size_t>(c)]) > tol) row_ok = false;
      s.Clear(c);
    }
    if (!row_ok) return false;
  }
  return true;
}

}  // namespace sparse
}  // namespace spnet
