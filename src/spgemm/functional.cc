#include "spgemm/functional.h"

#include <string>
#include <vector>

#include "common/parallel.h"
#include "sparse/row_scratch.h"
#include "sparse/stats.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::Offset;
using sparse::RowScratch;
using sparse::RowScratchArena;
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

/// Accumulates row r of A*B into `s`: A's row entries in column order,
/// each times B's row in column order, summed per output column in that
/// order. This order fixes the output bits, so every pass and every thread
/// count uses it.
void AccumulateRow(const CsrMatrix& a, const CsrMatrix& b, Index r,
                   RowScratch* s) {
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    const Value av = arow.values[k];
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      s->Touch(c);
      s->acc[static_cast<size_t>(c)] += av * brow.values[l];
    }
  }
}

/// Writes the accumulated row to `out_idx`/`out_val` in first-touch order
/// (unordered CSR) and resets `s`. The caller guarantees the output slice
/// holds s->touched_cols.size() entries.
void EmitRow(RowScratch* s, Index* out_idx, Value* out_val) {
  size_t slot = 0;
  for (Index c : s->touched_cols) {
    out_idx[slot] = c;
    out_val[slot] = s->acc[static_cast<size_t>(c)];
    ++slot;
  }
  s->ResetTouched();
}

/// Counts the distinct output columns of row r without materializing the
/// expansion (pass 1 of the two-pass scheme).
Offset SymbolicRowNnz(const CsrMatrix& a, const CsrMatrix& b, Index r,
                      RowScratch* s) {
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    for (Offset l = 0; l < brow.size; ++l) s->Touch(brow.indices[l]);
  }
  const Offset distinct = static_cast<Offset>(s->touched_cols.size());
  s->ResetTouched();
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
    RowScratch s;
    s.EnsureCols(cols);
    const int64_t flops = sparse::SpGemmFlops(a, b);
    std::vector<Index> out_idx;
    std::vector<Value> out_val;
    out_idx.reserve(static_cast<size_t>(flops));
    out_val.reserve(static_cast<size_t>(flops));
    for (Index r = 0; r < rows; ++r) {
      AccumulateRow(a, b, r, &s);
      const size_t base = out_idx.size();
      out_idx.resize(base + s.touched_cols.size());
      out_val.resize(base + s.touched_cols.size());
      EmitRow(&s, out_idx.data() + base, out_val.data() + base);
      ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out_idx.size());
    }
    return CsrMatrix::FromParts(rows, cols, std::move(ptr),
                                std::move(out_idx), std::move(out_val));
  }

  // Parallel path: two-pass (size, scan, fill) with per-thread scratch.
  // Every row is accumulated in the same order as the serial path and
  // written at a scan-fixed offset, so the result is bit-identical for any
  // thread count.
  const int64_t grain = GrainForItems(rows, pool.threads());
  RowScratchArena arena(pool.threads(), cols);

  SPNET_CHECK_OK(pool.ParallelFor(0, rows, grain,
                   [&](int64_t row_begin, int64_t row_end, int thread_index) {
                     RowScratch& s = arena.at(thread_index);
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       ptr[static_cast<size_t>(r) + 1] =
                           SymbolicRowNnz(a, b, static_cast<Index>(r), &s);
                     }
                     return Status::Ok();
                   }));
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    ptr[r + 1] += ptr[r];
  }
  const Offset total = ptr[static_cast<size_t>(rows)];

  std::vector<Index> out_idx(static_cast<size_t>(total));
  std::vector<Value> out_val(static_cast<size_t>(total));
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        RowScratch& s = arena.at(thread_index);
        for (int64_t r = row_begin; r < row_end; ++r) {
          AccumulateRow(a, b, static_cast<Index>(r), &s);
          const Offset base = ptr[static_cast<size_t>(r)];
          EmitRow(&s, out_idx.data() + base, out_val.data() + base);
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
