#include "sparse/reference_spgemm.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "sparse/row_scratch.h"

namespace spnet {
namespace sparse {

namespace {

/// Accumulates row r of A*B into `s` (dense accumulator + touched list).
/// The per-row visit order is fixed by the input structure, so every
/// thread count produces the same accumulation sequence per row.
void AccumulateRow(const CsrMatrix& a, const CsrMatrix& b, Index r,
                   RowScratch* s) {
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const Index j = arow.indices[k];
    const Value av = arow.values[k];
    const SpanView brow = b.Row(j);
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      s->Touch(c);
      s->acc[static_cast<size_t>(c)] += av * brow.values[l];
    }
  }
}

}  // namespace

Result<CsrMatrix> ReferenceSpGemm(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch: a is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", b is " + std::to_string(b.rows()) + "x" +
        std::to_string(b.cols()));
  }
  const Index rows = a.rows();
  const Index cols = b.cols();
  ThreadPool& pool = GlobalThreadPool();

  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);

  if (pool.threads() == 1) {
    // Serial path: the historical single-pass Gustavson loop (grow the
    // output as rows complete). Avoids the symbolic pass entirely.
    RowScratch s;
    s.EnsureCols(cols);
    std::vector<Index> out_idx;
    std::vector<Value> out_val;
    for (Index r = 0; r < rows; ++r) {
      AccumulateRow(a, b, r, &s);
      std::sort(s.touched_cols.begin(), s.touched_cols.end());
      for (Index c : s.touched_cols) {
        out_idx.push_back(c);
        out_val.push_back(s.acc[static_cast<size_t>(c)]);
      }
      s.ResetTouched();
      ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out_idx.size());
    }
    return CsrMatrix::FromParts(rows, cols, std::move(ptr),
                                std::move(out_idx), std::move(out_val));
  }

  // Parallel path: deterministic two-pass (size, scan, fill). Each row is
  // produced entirely by one thread with the same per-row computation as
  // the serial path, and lands at an offset fixed by the scan, so the
  // output is bit-identical for every thread count.
  const int64_t grain = GrainForItems(rows, pool.threads());
  RowScratchArena arena(pool.threads(), cols);

  // Pass 1: per-row output nnz (symbolic).
  SPNET_CHECK_OK(pool.ParallelFor(0, rows, grain,
                   [&](int64_t row_begin, int64_t row_end, int thread_index) {
                     RowScratch& s = arena.at(thread_index);
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       const SpanView arow = a.Row(static_cast<Index>(r));
                       for (Offset k = 0; k < arow.size; ++k) {
                         const SpanView brow = b.Row(arow.indices[k]);
                         for (Offset l = 0; l < brow.size; ++l) {
                           s.Touch(brow.indices[l]);
                         }
                       }
                       ptr[static_cast<size_t>(r) + 1] =
                           static_cast<Offset>(s.touched_cols.size());
                       s.ResetTouched();
                     }
                     return Status::Ok();
                   }));

  // Exclusive scan of the row sizes into row pointers.
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    ptr[r + 1] += ptr[r];
  }
  const Offset total = ptr[static_cast<size_t>(rows)];

  // Pass 2: numeric fill into the pre-sized output slices.
  std::vector<Index> out_idx(static_cast<size_t>(total));
  std::vector<Value> out_val(static_cast<size_t>(total));
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        RowScratch& s = arena.at(thread_index);
        for (int64_t r = row_begin; r < row_end; ++r) {
          AccumulateRow(a, b, static_cast<Index>(r), &s);
          std::sort(s.touched_cols.begin(), s.touched_cols.end());
          Offset cursor = ptr[static_cast<size_t>(r)];
          for (Index c : s.touched_cols) {
            out_idx[static_cast<size_t>(cursor)] = c;
            out_val[static_cast<size_t>(cursor)] =
                s.acc[static_cast<size_t>(c)];
            ++cursor;
          }
          s.ResetTouched();
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

Result<int64_t> SpGemmExactOutputNnz(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in symbolic spGEMM");
  }
  const Index cols = b.cols();
  ThreadPool& pool = GlobalThreadPool();
  // Per-thread last-touching-row marks: a column counts once per row, and
  // no reset is needed between rows because row ids never repeat.
  std::vector<std::vector<Index>> marks(static_cast<size_t>(pool.threads()));
  return pool.ParallelReduce(
      0, a.rows(), GrainForItems(a.rows(), pool.threads()), int64_t{0},
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        std::vector<Index>& mark = marks[static_cast<size_t>(thread_index)];
        if (mark.empty()) mark.assign(static_cast<size_t>(cols), -1);
        int64_t nnz = 0;
        for (int64_t r = row_begin; r < row_end; ++r) {
          const SpanView arow = a.Row(static_cast<Index>(r));
          for (Offset k = 0; k < arow.size; ++k) {
            const SpanView brow = b.Row(arow.indices[k]);
            for (Offset l = 0; l < brow.size; ++l) {
              const Index c = brow.indices[l];
              if (mark[static_cast<size_t>(c)] != static_cast<Index>(r)) {
                mark[static_cast<size_t>(c)] = static_cast<Index>(r);
                ++nnz;
              }
            }
          }
        }
        return nnz;
      },
      [](int64_t acc, int64_t partial) { return acc + partial; });
}

}  // namespace sparse
}  // namespace spnet
