#include "spgemm/functional.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/parallel.h"
#include "sparse/row_scratch.h"
#include "sparse/stats.h"

namespace spnet {
namespace spgemm {

using sparse::CscMatrix;
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

/// Merges an intermediate element range [0, count) of (col, val) pairs
/// into `out_idx`/`out_val` using the dense accumulator in `s`; emits in
/// first-touch order (unordered CSR). Returns the number of merged
/// entries. The caller guarantees the output slice can hold them. The
/// whole range is read before anything is written, so the output may
/// start at or before `cols`/`vals` in the same buffers.
Offset MergeRangeInto(const Index* cols, const Value* vals, Offset count,
                      RowScratch* s, Index* out_idx, Value* out_val) {
  for (Offset k = 0; k < count; ++k) {
    const Index c = cols[k];
    s->Touch(c);
    s->acc[static_cast<size_t>(c)] += vals[k];
  }
  const Offset merged = static_cast<Offset>(s->touched_cols.size());
  Offset slot = 0;
  for (Index c : s->touched_cols) {
    out_idx[static_cast<size_t>(slot)] = c;
    out_val[static_cast<size_t>(slot)] = s->acc[static_cast<size_t>(c)];
    ++slot;
  }
  s->ResetTouched();
  return merged;
}

/// Number of distinct columns in an intermediate element range (the
/// symbolic half of MergeRangeInto).
Offset CountDistinct(const Index* cols, Offset count, RowScratch* s) {
  for (Offset k = 0; k < count; ++k) s->Touch(cols[k]);
  const Offset distinct = static_cast<Offset>(s->touched_cols.size());
  s->ResetTouched();
  return distinct;
}

/// Expands row r of A*B into `exp_cols`/`exp_vals` (cleared first). The
/// append order — A's row entries in column order, each times B's row in
/// column order — is also the order the outer product's column-major
/// scatter fills this row's C-hat region, because A's sorted rows make
/// both traversals visit the inner dimension in increasing order.
void ExpandRow(const CsrMatrix& a, const CsrMatrix& b, Index r,
               int64_t row_flops, std::vector<Index>* exp_cols,
               std::vector<Value>* exp_vals) {
  exp_cols->clear();
  exp_vals->clear();
  // Reserving the exact intermediate size (from SpGemmRowFlops) replaces
  // the repeated push_back reallocation the serial code used to pay.
  exp_cols->reserve(static_cast<size_t>(row_flops));
  exp_vals->reserve(static_cast<size_t>(row_flops));
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    const Value av = arow.values[k];
    for (Offset l = 0; l < brow.size; ++l) {
      exp_cols->push_back(brow.indices[l]);
      exp_vals->push_back(av * brow.values[l]);
    }
  }
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

  const std::vector<int64_t> row_flops = sparse::SpGemmRowFlops(a, b);
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);

  if (pool.threads() == 1) {
    // Serial path: single pass, rows appended as they complete. flops bounds
    // nnz(C), so the output never regrows; untouched reserve is not resident.
    RowScratch s;
    s.EnsureCols(cols);
    int64_t flops = 0;
    for (int64_t f : row_flops) flops = SatAddI64(flops, f);
    std::vector<Index> out_idx;
    std::vector<Value> out_val;
    out_idx.reserve(static_cast<size_t>(flops));
    out_val.reserve(static_cast<size_t>(flops));
    std::vector<Index> exp_cols;
    std::vector<Value> exp_vals;
    for (Index r = 0; r < rows; ++r) {
      ExpandRow(a, b, r, row_flops[static_cast<size_t>(r)], &exp_cols,
                &exp_vals);
      const size_t base = out_idx.size();
      out_idx.resize(base + exp_cols.size());
      out_val.resize(base + exp_cols.size());
      const Offset merged = MergeRangeInto(
          exp_cols.data(), exp_vals.data(),
          static_cast<Offset>(exp_cols.size()), &s, out_idx.data() + base,
          out_val.data() + base);
      out_idx.resize(base + static_cast<size_t>(merged));
      out_val.resize(base + static_cast<size_t>(merged));
      ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out_idx.size());
    }
    return CsrMatrix::FromParts(rows, cols, std::move(ptr),
                                std::move(out_idx), std::move(out_val));
  }

  // Parallel path: two-pass (size, scan, fill) with per-thread scratch.
  // Every row is expanded and merged in the same element order as the
  // serial path and written at a scan-fixed offset, so the result is
  // bit-identical for any thread count.
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
  std::vector<std::vector<Index>> exp_cols(
      static_cast<size_t>(pool.threads()));
  std::vector<std::vector<Value>> exp_vals(
      static_cast<size_t>(pool.threads()));
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        RowScratch& s = arena.at(thread_index);
        std::vector<Index>& ec = exp_cols[static_cast<size_t>(thread_index)];
        std::vector<Value>& ev = exp_vals[static_cast<size_t>(thread_index)];
        for (int64_t r = row_begin; r < row_end; ++r) {
          ExpandRow(a, b, static_cast<Index>(r),
                    row_flops[static_cast<size_t>(r)], &ec, &ev);
          const Offset base = ptr[static_cast<size_t>(r)];
          MergeRangeInto(ec.data(), ev.data(),
                         static_cast<Offset>(ec.size()), &s,
                         out_idx.data() + base, out_val.data() + base);
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

Result<CsrMatrix> MergeChatInPlace(Index rows, Index cols,
                                   std::vector<Offset> chat_ptr,
                                   std::vector<Index> chat_cols,
                                   std::vector<Value> chat_vals) {
  if (rows < 0 || cols < 0 ||
      chat_ptr.size() != static_cast<size_t>(rows) + 1 ||
      chat_ptr.front() != 0 ||
      !std::is_sorted(chat_ptr.begin(), chat_ptr.end()) ||
      chat_ptr.back() != static_cast<Offset>(chat_cols.size()) ||
      chat_cols.size() != chat_vals.size()) {
    return Status::InvalidArgument("malformed C-hat layout");
  }
  RowScratch s;
  s.EnsureCols(cols);
  // chat_ptr[r] is overwritten with the output offset only after row r-1
  // has been merged, so `begin` carries the C-hat start forward.
  Offset begin = 0;
  Offset out = 0;
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    const Offset end = chat_ptr[r + 1];
    out += MergeRangeInto(chat_cols.data() + begin, chat_vals.data() + begin,
                          end - begin, &s, chat_cols.data() + out,
                          chat_vals.data() + out);
    chat_ptr[r + 1] = out;
    begin = end;
  }
  chat_cols.resize(static_cast<size_t>(out));
  chat_vals.resize(static_cast<size_t>(out));
  return CsrMatrix::FromParts(rows, cols, std::move(chat_ptr),
                              std::move(chat_cols), std::move(chat_vals));
}

Result<CsrMatrix> OuterProductExpandMerge(const CsrMatrix& a,
                                          const CsrMatrix& b) {
  SPNET_RETURN_IF_ERROR(CheckDims(a, b));
  const Index rows = a.rows();
  const Index cols = b.cols();
  ThreadPool& pool = GlobalThreadPool();

  // Row-wise C-hat sizes drive the relocation cursors (the paper
  // precalculates exactly this).
  const std::vector<int64_t> row_chat = sparse::SpGemmRowFlops(a, b);
  std::vector<Offset> chat_ptr(static_cast<size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    chat_ptr[static_cast<size_t>(r) + 1] = SatAddI64(
        chat_ptr[static_cast<size_t>(r)], row_chat[static_cast<size_t>(r)]);
  }
  const Offset total = chat_ptr[static_cast<size_t>(rows)];

  std::vector<Index> chat_cols(static_cast<size_t>(total));
  std::vector<Value> chat_vals(static_cast<size_t>(total));

  if (pool.threads() == 1) {
    // Serial expansion, pair by pair: pair i = (column i of A) x (row i of
    // B); every product of the pair lands in the C-hat region of its
    // output row.
    std::vector<Offset> cursor(chat_ptr.begin(), chat_ptr.end() - 1);
    const CscMatrix a_csc = CscMatrix::FromCsr(a);
    for (Index i = 0; i < a.cols(); ++i) {
      const SpanView acol = a_csc.Col(i);
      if (acol.size == 0 || i >= b.rows()) continue;
      const SpanView brow = b.Row(i);
      if (brow.size == 0) continue;
      for (Offset k = 0; k < acol.size; ++k) {
        const Index r = acol.indices[k];
        const Value av = acol.values[k];
        Offset& cur = cursor[static_cast<size_t>(r)];
        for (Offset l = 0; l < brow.size; ++l) {
          chat_cols[static_cast<size_t>(cur)] = brow.indices[l];
          chat_vals[static_cast<size_t>(cur)] = av * brow.values[l];
          ++cur;
        }
      }
    }

    return MergeChatInPlace(rows, cols, std::move(chat_ptr),
                            std::move(chat_cols), std::move(chat_vals));
  }

  // Parallel expansion: each output row's C-hat region is filled by one
  // thread. Within a row the serial column-major scatter appends products
  // in increasing inner-dimension order, which is exactly the order
  // ExpandRow produces (A's rows are column-sorted), so the relocated
  // intermediate is bit-identical to the serial scatter.
  const int64_t grain = GrainForItems(rows, pool.threads());
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain, [&](int64_t row_begin, int64_t row_end, int) {
        for (int64_t r = row_begin; r < row_end; ++r) {
          Offset cur = chat_ptr[static_cast<size_t>(r)];
          const SpanView arow = a.Row(static_cast<Index>(r));
          for (Offset k = 0; k < arow.size; ++k) {
            const SpanView brow = b.Row(arow.indices[k]);
            const Value av = arow.values[k];
            for (Offset l = 0; l < brow.size; ++l) {
              chat_cols[static_cast<size_t>(cur)] = brow.indices[l];
              chat_vals[static_cast<size_t>(cur)] = av * brow.values[l];
              ++cur;
            }
          }
        }
        return Status::Ok();
      }));

  // Parallel merge: two-pass (size, scan, fill) over the C-hat regions.
  RowScratchArena arena(pool.threads(), cols);
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);
  SPNET_CHECK_OK(pool.ParallelFor(0, rows, grain,
                   [&](int64_t row_begin, int64_t row_end, int thread_index) {
                     RowScratch& s = arena.at(thread_index);
                     for (int64_t r = row_begin; r < row_end; ++r) {
                       const Offset begin = chat_ptr[static_cast<size_t>(r)];
                       const Offset count =
                           chat_ptr[static_cast<size_t>(r) + 1] - begin;
                       ptr[static_cast<size_t>(r) + 1] =
                           CountDistinct(chat_cols.data() + begin, count, &s);
                     }
                     return Status::Ok();
                   }));
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    ptr[r + 1] += ptr[r];
  }
  const Offset out_total = ptr[static_cast<size_t>(rows)];

  std::vector<Index> out_idx(static_cast<size_t>(out_total));
  std::vector<Value> out_val(static_cast<size_t>(out_total));
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        RowScratch& s = arena.at(thread_index);
        for (int64_t r = row_begin; r < row_end; ++r) {
          const Offset begin = chat_ptr[static_cast<size_t>(r)];
          const Offset count = chat_ptr[static_cast<size_t>(r) + 1] - begin;
          const Offset base = ptr[static_cast<size_t>(r)];
          MergeRangeInto(chat_cols.data() + begin, chat_vals.data() + begin,
                         count, &s, out_idx.data() + base,
                         out_val.data() + base);
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
