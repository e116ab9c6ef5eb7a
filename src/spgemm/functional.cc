#include "spgemm/functional.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "sparse/stats.h"

namespace spnet {
namespace spgemm {

using sparse::CsrMatrix;
using sparse::Index;
using sparse::IndexArray;
using sparse::Offset;
using sparse::SpanView;
using sparse::Value;
using sparse::ValueArray;

namespace {

Status CheckDims(const CsrMatrix& a, const CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(
        "dimension mismatch: " + std::to_string(a.cols()) + " vs " +
        std::to_string(b.rows()));
  }
  return Status::Ok();
}

/// Per-worker accumulator. In the numeric pass slots[c] is the output
/// position where column c was last accumulated, or -1. A worker writes
/// its rows at growing positions, so column c already has an entry in the
/// row that starts at `base` exactly when slots[c] >= base, and rows need
/// no reset pass. `end` is where the worker's last row ended. In the
/// symbolic pass slots[c] is the last row that touched column c.
/// Cache-line aligned so neighbouring workers' vector headers never share
/// a line.
struct alignas(64) StampAccumulator {
  explicit StampAccumulator(Index cols)
      : slots(static_cast<size_t>(cols), -1) {}

  std::vector<Offset> slots;
  Offset end = 0;
};
static_assert(alignof(StampAccumulator) >= 64,
              "StampAccumulator must be cache-line aligned");

/// Accumulates row r of A*B into the output arrays `idx`/`val` from
/// position `base` on and returns the row's length: A's row entries in
/// storage order, each times B's row in storage order, summed per output
/// column in that order. This order fixes the output bits, so every pass
/// and every thread count uses it. Columns are listed in first-touch
/// order. A column's first product is stored as `0.0 + p`, the sum into a
/// zeroed accumulator, so a row of -0.0 products sums to +0.0. The caller
/// provides room for the row's distinct columns, at most min(row
/// products, cols); what that room holds does not matter.
///
/// The loop is branch-free: on hub rows "new column or repeat?" cannot be
/// predicted, so every product writes its column and adds into a position
/// chosen by a mask. A new column's position is the row's next free one;
/// the same mask clears the bits loaded from it to +0.0, so the add is
/// `0.0 + p` and no bit the storage held before reaches the output. A
/// repeat rewrites its own column and adds into its own sum.
Offset AccumulateRow(const CsrMatrix& a, const CsrMatrix& b, Index r,
                     Offset base, StampAccumulator* s, Index* idx,
                     Value* val) {
  Offset* slots = s->slots.data();
  // A row that starts below the worker's last row would read that row's
  // positions as its own. ParallelFor hands each worker its chunks in
  // increasing order, so this reset never runs there; it keeps the kernel
  // correct under any schedule.
  if (base < s->end) std::fill(s->slots.begin(), s->slots.end(), -1);
  Offset end = base;
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    const Value av = arow.values[k];
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      const Value p = av * brow.values[l];
      const Offset seen = slots[c];
      // All ones on a new column, zero on a repeat. A mask select, not
      // `?:`, which the compiler may turn back into a jump.
      const Offset fresh = (seen - base) >> 63;
      const Offset pos = seen ^ ((seen ^ end) & fresh);
      idx[pos] = c;
      const uint64_t held =
          std::bit_cast<uint64_t>(val[pos]) & ~static_cast<uint64_t>(fresh);
      val[pos] = std::bit_cast<Value>(held) + p;
      slots[c] = pos;
      end -= fresh;
    }
  }
  s->end = end;
  return end - base;
}

/// Counts the distinct output columns of row r without materializing the
/// expansion (pass 1 of the two-pass scheme). Branch-free like
/// AccumulateRow.
Offset SymbolicRowNnz(const CsrMatrix& a, const CsrMatrix& b, Index r,
                      StampAccumulator* s) {
  Offset* slots = s->slots.data();
  Offset distinct = 0;
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const SpanView brow = b.Row(arow.indices[k]);
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      distinct += slots[c] != r;
      slots[c] = r;
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
    // Serial path: single pass, rows written in place as they complete,
    // into one allocation of flops(A*B) entries. A row's distinct columns
    // never outnumber its products, so no row runs past it; pages no row
    // reaches are never touched.
    StampAccumulator s(cols);
    const auto flops = static_cast<size_t>(sparse::SpGemmFlops(a, b));
    IndexArray out_idx(flops);
    ValueArray out_val(flops);
    Offset end = 0;
    for (Index r = 0; r < rows; ++r) {
      end += AccumulateRow(a, b, r, end, &s, out_idx.data(), out_val.data());
      ptr[static_cast<size_t>(r) + 1] = end;
    }
    out_idx.resize(static_cast<size_t>(end));
    out_val.resize(static_cast<size_t>(end));
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
  // The numeric pass reads slots as output positions, where a symbolic
  // row stamp would read as a column already in the row.
  for (StampAccumulator& s : workers) {
    std::fill(s.slots.begin(), s.slots.end(), -1);
  }

  IndexArray out_idx(total);
  ValueArray out_val(total);
  SPNET_CHECK_OK(pool.ParallelFor(
      0, rows, grain,
      [&](int64_t row_begin, int64_t row_end, int thread_index) {
        StampAccumulator& s = workers[static_cast<size_t>(thread_index)];
        for (int64_t r = row_begin; r < row_end; ++r) {
          AccumulateRow(a, b, static_cast<Index>(r),
                        ptr[static_cast<size_t>(r)], &s, out_idx.data(),
                        out_val.data());
        }
        return Status::Ok();
      }));

  return CsrMatrix::FromParts(rows, cols, std::move(ptr), std::move(out_idx),
                              std::move(out_val));
}

}  // namespace spgemm
}  // namespace spnet
