#include "sparse/operations.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

namespace spnet {
namespace sparse {

namespace {

Status CheckSameShape(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument(
        "shape mismatch: " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + " vs " + std::to_string(b.rows()) + "x" +
        std::to_string(b.cols()));
  }
  return Status::Ok();
}

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

Result<std::vector<Value>> SpMv(const CsrMatrix& a,
                                const std::vector<Value>& x) {
  if (static_cast<Index>(x.size()) != a.cols()) {
    return Status::InvalidArgument("SpMv: x has " + std::to_string(x.size()) +
                                   " entries, A has " +
                                   std::to_string(a.cols()) + " columns");
  }
  std::vector<Value> y(static_cast<size_t>(a.rows()), 0.0);
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    Value acc = 0.0;
    for (Offset k = 0; k < row.size; ++k) {
      acc += row.values[k] * x[static_cast<size_t>(row.indices[k])];
    }
    y[static_cast<size_t>(r)] = acc;
  }
  return y;
}

Result<std::vector<Value>> SpMvTranspose(const CsrMatrix& a,
                                         const std::vector<Value>& x) {
  if (static_cast<Index>(x.size()) != a.rows()) {
    return Status::InvalidArgument(
        "SpMvTranspose: x has " + std::to_string(x.size()) +
        " entries, A has " + std::to_string(a.rows()) + " rows");
  }
  std::vector<Value> y(static_cast<size_t>(a.cols()), 0.0);
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    const Value xr = x[static_cast<size_t>(r)];
    if (xr == 0.0) continue;
    for (Offset k = 0; k < row.size; ++k) {
      y[static_cast<size_t>(row.indices[k])] += row.values[k] * xr;
    }
  }
  return y;
}

Result<CsrMatrix> Add(const CsrMatrix& a, const CsrMatrix& b, Value alpha,
                      Value beta) {
  SPNET_RETURN_IF_ERROR(CheckSameShape(a, b));
  std::vector<Offset> ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  idx.reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  val.reserve(static_cast<size_t>(a.nnz() + b.nnz()));

  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView ra = a.Row(r);
    const SpanView rb = b.Row(r);
    // Two-pointer merge; inputs in this library keep rows sorted.
    Offset i = 0, j = 0;
    while (i < ra.size || j < rb.size) {
      Index ca = i < ra.size ? ra.indices[i] : a.cols();
      Index cb = j < rb.size ? rb.indices[j] : a.cols();
      if (ca < cb) {
        idx.push_back(ca);
        val.push_back(alpha * ra.values[i]);
        ++i;
      } else if (cb < ca) {
        idx.push_back(cb);
        val.push_back(beta * rb.values[j]);
        ++j;
      } else {
        idx.push_back(ca);
        val.push_back(alpha * ra.values[i] + beta * rb.values[j]);
        ++i;
        ++j;
      }
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(idx.size());
  }
  return CsrMatrix::FromParts(a.rows(), a.cols(), std::move(ptr),
                              std::move(idx), std::move(val));
}

Result<CsrMatrix> Hadamard(const CsrMatrix& a, const CsrMatrix& b) {
  SPNET_RETURN_IF_ERROR(CheckSameShape(a, b));
  std::vector<Offset> ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView ra = a.Row(r);
    const SpanView rb = b.Row(r);
    Offset i = 0, j = 0;
    while (i < ra.size && j < rb.size) {
      if (ra.indices[i] < rb.indices[j]) {
        ++i;
      } else if (rb.indices[j] < ra.indices[i]) {
        ++j;
      } else {
        idx.push_back(ra.indices[i]);
        val.push_back(ra.values[i] * rb.values[j]);
        ++i;
        ++j;
      }
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(idx.size());
  }
  return CsrMatrix::FromParts(a.rows(), a.cols(), std::move(ptr),
                              std::move(idx), std::move(val));
}

CsrMatrix Scale(const CsrMatrix& a, Value alpha) {
  std::vector<Value> val(a.values());
  for (Value& v : val) v *= alpha;
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                     std::move(val));
  return std::move(result).value();  // same structure: cannot fail
}

Result<CsrMatrix> Submatrix(const CsrMatrix& a, Index row_begin,
                            Index row_end, Index col_begin, Index col_end) {
  if (row_begin < 0 || row_end > a.rows() || row_begin > row_end ||
      col_begin < 0 || col_end > a.cols() || col_begin > col_end) {
    return Status::OutOfRange("submatrix range out of bounds");
  }
  std::vector<Offset> ptr(static_cast<size_t>(row_end - row_begin) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = row_begin; r < row_end; ++r) {
    const SpanView row = a.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      const Index c = row.indices[k];
      if (c >= col_begin && c < col_end) {
        idx.push_back(c - col_begin);
        val.push_back(row.values[k]);
      }
    }
    ptr[static_cast<size_t>(r - row_begin) + 1] =
        static_cast<Offset>(idx.size());
  }
  return CsrMatrix::FromParts(row_end - row_begin, col_end - col_begin,
                              std::move(ptr), std::move(idx), std::move(val));
}

CsrMatrix DropEntries(const CsrMatrix& a, Value threshold) {
  std::vector<Offset> ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      if (std::fabs(row.values[k]) > threshold) {
        idx.push_back(row.indices[k]);
        val.push_back(row.values[k]);
      }
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(idx.size());
  }
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), std::move(ptr),
                                     std::move(idx), std::move(val));
  return std::move(result).value();  // subset of a valid matrix
}

CsrMatrix TopKPerRow(const CsrMatrix& a, Index k) {
  std::vector<Offset> ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<Index> idx;
  std::vector<Value> val;
  std::vector<std::pair<Value, Index>> buf;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    buf.clear();
    for (Offset i = 0; i < row.size; ++i) {
      buf.emplace_back(row.values[i], row.indices[i]);
    }
    const size_t keep = std::min<size_t>(static_cast<size_t>(std::max<Index>(k, 0)),
                                         buf.size());
    // Ties at the k boundary are broken by ascending column index; a
    // magnitude-only comparator would keep an arbitrary survivor among
    // equal-magnitude entries, making top-k depend on input entry order
    // (which a row or column permutation changes).
    std::partial_sort(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(keep),
                      buf.end(), [](const auto& x, const auto& y) {
                        const double ax = std::fabs(x.first);
                        const double ay = std::fabs(y.first);
                        if (ax != ay) return ax > ay;
                        return x.second < y.second;
                      });
    buf.resize(keep);
    std::sort(buf.begin(), buf.end(), [](const auto& x, const auto& y) {
      return x.second < y.second;
    });
    for (const auto& [v, c] : buf) {
      idx.push_back(c);
      val.push_back(v);
    }
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(idx.size());
  }
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), std::move(ptr),
                                     std::move(idx), std::move(val));
  return std::move(result).value();
}

double FrobeniusNorm(const CsrMatrix& a) {
  double sum = 0.0;
  for (Value v : a.values()) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

Value EntrySum(const CsrMatrix& a) {
  Value sum = 0.0;
  for (Value v : a.values()) sum += v;
  return sum;
}

CsrMatrix Identity(Index n) {
  std::vector<Offset> ptr(static_cast<size_t>(n) + 1);
  std::vector<Index> idx(static_cast<size_t>(n));
  std::vector<Value> val(static_cast<size_t>(n), 1.0);
  for (Index i = 0; i <= n; ++i) ptr[static_cast<size_t>(i)] = i;
  for (Index i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
  auto result = CsrMatrix::FromParts(n, n, std::move(ptr), std::move(idx),
                                     std::move(val));
  return std::move(result).value();
}

CsrMatrix RowNormalize(const CsrMatrix& a) {
  std::vector<Value> val(a.values());
  size_t cursor = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    Value sum = 0.0;
    for (Offset k = 0; k < row.size; ++k) sum += row.values[k];
    for (Offset k = 0; k < row.size; ++k, ++cursor) {
      if (sum != 0.0) val[cursor] /= sum;
    }
  }
  auto result = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                     std::move(val));
  return std::move(result).value();
}

CsrMatrix Diagonal(const std::vector<Value>& d) {
  const Index n = static_cast<Index>(d.size());
  std::vector<Offset> ptr(static_cast<size_t>(n) + 1);
  std::vector<Index> idx(static_cast<size_t>(n));
  for (Index i = 0; i <= n; ++i) ptr[static_cast<size_t>(i)] = i;
  for (Index i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = i;
  auto result = CsrMatrix::FromParts(n, n, std::move(ptr), std::move(idx), d);
  return std::move(result).value();
}

std::vector<Value> ExtractDiagonal(const CsrMatrix& a) {
  const Index n = std::min(a.rows(), a.cols());
  std::vector<Value> d(static_cast<size_t>(n), 0.0);
  for (Index r = 0; r < n; ++r) {
    const SpanView row = a.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      if (row.indices[k] == r) {
        d[static_cast<size_t>(r)] = row.values[k];
        break;
      }
    }
  }
  return d;
}

Result<CsrMatrix> PermuteRows(const CsrMatrix& m,
                              const std::vector<Index>& new_to_old) {
  SPNET_RETURN_IF_ERROR(InvertPermutation(new_to_old, m.rows()).status());
  const size_t rows = new_to_old.size();
  std::vector<Offset> ptr(rows + 1, 0);
  for (size_t i = 0; i < rows; ++i) {
    ptr[i + 1] = ptr[i] + m.RowNnz(new_to_old[i]);
  }
  std::vector<Index> indices(static_cast<size_t>(m.nnz()));
  std::vector<Value> values(static_cast<size_t>(m.nnz()));
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
  std::vector<Index> indices(static_cast<size_t>(m.nnz()));
  std::vector<Value> values(static_cast<size_t>(m.nnz()));
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
