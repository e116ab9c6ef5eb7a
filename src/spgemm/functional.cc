#include "spgemm/functional.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/huge_pages.h"
#include "common/parallel.h"
#include "sparse/stats.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;

namespace {

Status CheckDims(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch: " + std::to_string(a.cols()) + " vs " +
        std::to_string(b.rows()));
  }
  return Status::Ok();
}

/// Dense accumulator for one kernel worker. `mark[c]` is the last row that
/// touched column c, so rows need no reset pass: column c is untouched in
/// row r while mark[c] != r. Cache-line aligned so neighbouring workers'
/// vector headers never share a line.
struct alignas(64) StampAccumulator {
  explicit StampAccumulator(Index cols)
      : acc(static_cast<size_t>(cols)), mark(static_cast<size_t>(cols), -1) {}

  std::vector<Value> acc;
  std::vector<Index> mark;
};
static_assert(alignof(StampAccumulator) >= 64,
              "StampAccumulator must be cache-line aligned");

/// Accumulates row r of A*B into `s`: A's row entries in column order,
/// each times B's row in column order, summed per output column in that
/// order. This order fixes the output bits, so every pass and every thread
/// count uses it. A column's first product is stored as `0.0 + p`, the sum
/// into a zeroed accumulator, so a row of -0.0 products sums to +0.0.
/// `emit(c)` is called once per distinct column, in first-touch order.
template <typename Emit>
void AccumulateRow(const CsrMatrix& a, const CsrMatrix& b, Index r,
                   StampAccumulator* s, Emit emit) {
  Value* acc = s->acc.data();
  Index* mark = s->mark.data();
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    const Value av = arow.values[k];
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      const Value p = av * brow.values[l];
      if (mark[c] != r) {
        mark[c] = r;
        acc[c] = 0.0 + p;
        emit(c);
      } else {
        acc[c] += p;
      }
    }
  }
}

/// Counts the distinct output columns of row r without materializing the
/// expansion (pass 1 of the two-pass scheme).
Offset SymbolicRowNnz(const CsrMatrix& a, const CsrMatrix& b, Index r,
                      StampAccumulator* s) {
  Index* mark = s->mark.data();
  Offset distinct = 0;
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      if (mark[c] != r) {
        mark[c] = r;
        ++distinct;
      }
    }
  }
  return distinct;
}

}  // namespace

Result<CsrMatrix> RowProductExpandMerge(const CsrMatrix& a,
                                        const CsrMatrix& b) {
  SPNET_RETURN_IF_ERROR(CheckDims(a, b));
  const Index rows = a.rows();
  const Index cols = b.cols();
  ThreadPool& pool = GlobalThreadPool();
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);

  if (pool.threads() == 1) {
    // Serial path: single pass, rows appended as they complete. flops bounds
    // nnz(C), so the output never regrows; untouched reserve is not resident.
    StampAccumulator s(cols);
    const int64_t flops = sparse::SpGemmFlops(a, b);
    std::vector<Index> out_idx;
    std::vector<Value> out_val;
    out_idx.reserve(static_cast<size_t>(flops));
    out_val.reserve(static_cast<size_t>(flops));
    AdviseHugePages(out_idx.data(), out_idx.capacity() * sizeof(Index));
    AdviseHugePages(out_val.data(), out_val.capacity() * sizeof(Value));
    for (Index r = 0; r < rows; ++r) {
      const size_t base = out_idx.size();
      AccumulateRow(a, b, r, &s, [&](Index c) { out_idx.push_back(c); });
      for (size_t j = base; j < out_idx.size(); ++j) {
        out_val.push_back(s.acc[static_cast<size_t>(out_idx[j])]);
      }
      ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out_idx.size());
    }
    return CsrMatrix::FromParts(rows, cols, std::move(ptr),
                                std::move(out_idx), std::move(out_val));
  }

  // Parallel path: two-pass (size, scan, fill) with per-thread accumulators.
  // Every row is accumulated in the same order as the serial path and
  // written at a scan-fixed offset, so the result is bit-identical for any
  // thread count.
  const int64_t grain = GrainForItems(rows, pool.threads());
  std::vector<StampAccumulator> workers(static_cast<size_t>(pool.threads()),
                                        StampAccumulator(cols));

  SPNET_CHECK_OK(pool.ParallelFor(0, rows, grain,
                   [&](int64_t row_begin, int64_t row_end, int thread_index) {
                     StampAccumulator& s =
                         workers[static_cast<size_t>(thread_index)];
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       ptr[static_cast<size_t>(r) + 1] =
                           SymbolicRowNnz(a, b, static_cast<Index>(r), &s);
                     }
                     return Status::Ok();
                   }));
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    ptr[r + 1] += ptr[r];
  }
  const size_t total = static_cast<size_t>(ptr[static_cast<size_t>(rows)]);
  // A row may land on another thread in the numeric pass, where a symbolic
  // stamp equal to its row number would read as already touched.
  for (StampAccumulator& s : workers) {
    std::fill(s.mark.begin(), s.mark.end(), Index{-1});
  }

  std::vector<Index> out_idx;
  std::vector<Value> out_val;
  out_idx.reserve(total);
  out_val.reserve(total);
  AdviseHugePages(out_idx.data(), total * sizeof(Index));
  AdviseHugePages(out_val.data(), total * sizeof(Value));
  out_idx.resize(total);
  out_val.resize(total);
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        StampAccumulator& s = workers[static_cast<size_t>(thread_index)];
        for (int64_t r = row_begin; r < row_end; ++r) {
          const Offset begin = ptr[static_cast<size_t>(r)];
          const Offset end = ptr[static_cast<size_t>(r) + 1];
          Index* idx = out_idx.data() + begin;
          AccumulateRow(a, b, static_cast<Index>(r), &s,
                        [&idx](Index c) { *idx++ = c; });
          for (Offset j = begin; j < end; ++j) {
            out_val[static_cast<size_t>(j)] =
                s.acc[static_cast<size_t>(out_idx[static_cast<size_t>(j)])];
          }
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
