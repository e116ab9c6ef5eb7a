#include "sparse/reference_spgemm.h"

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "sparse/row_scratch.h"
#include "sparse/stats.h"

namespace spnet {
namespace sparse {

namespace {

/// Accumulates row r of A*B into `s` (dense accumulator + touched list),
/// in the order the input structure fixes. This and SortTouched stay out
/// of line: inlined into ReferenceSpGemm's row loop, GCC 12 keeps the
/// inner loop's operands on the stack; out of line it compiles to the
/// register-only loop the oracle has always run.
[[gnu::noinline]] void AccumulateRow(const CsrMatrix& a, const CsrMatrix& b,
                                     Index r, RowScratch* s) {
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

/// Puts the row's touched columns in ascending order, in place. A row that
/// touched n of the `cols` columns is either sorted, O(n log n), or
/// rebuilt by one branch-free scan of the touched bitmap, O(cols). On
/// 2k-100k columns the scan measured faster once n*log2(n) passes about
/// cols/2, so dense rows are scanned and sparse rows sorted. Both give
/// the same ascending list, so the choice never changes an output bit.
[[gnu::noinline]] void SortTouched(Index cols, RowScratch* s) {
  std::vector<Index>& list = s->touched_cols;
  const size_t n = list.size();
  if (2 * n * static_cast<size_t>(std::bit_width(n)) <=
      static_cast<size_t>(cols)) {
    std::sort(list.begin(), list.end());
    return;
  }
  // Column c is written to slot k, and k moves on only past a touched
  // column, so each slot ends up holding its touched column. The extra
  // element takes the writes after the last touched column.
  list.push_back(0);
  Index* out = list.data();
  size_t k = 0;
  for (Index c = 0; c < cols; ++c) {
    out[k] = c;
    k += s->touched[static_cast<size_t>(c)];
  }
  list.pop_back();
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

  // One serial Gustavson loop at every thread count, with no symbolic
  // pass. The output is reserved once at flops(A*B), an upper bound on
  // nnz(C), instead of doubling; reserved pages that no row reaches are
  // never touched, so they cost address space, not memory.
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);
  RowScratch s;
  s.EnsureCols(cols);
  const auto bound = static_cast<size_t>(SpGemmFlops(a, b));
  IndexArray out_idx;
  ValueArray out_val;
  out_idx.reserve(bound);
  out_val.reserve(bound);
  for (Index r = 0; r < rows; ++r) {
    AccumulateRow(a, b, r, &s);
    SortTouched(cols, &s);
    for (Index c : s.touched_cols) {
      out_idx.push_back(c);
      out_val.push_back(s.acc[static_cast<size_t>(c)]);
    }
    s.ResetTouched();
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(out_idx.size());
  }
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
