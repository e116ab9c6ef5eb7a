#include "sparse/reference_spgemm.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "sparse/row_scratch.h"
#include "sparse/stats.h"

namespace spnet {
namespace sparse {

namespace {

/// Accumulates row r of A*B into `s` (dense accumulator + touched list),
/// in the order the input structure fixes, and returns how many distinct
/// columns it touched. This and EmitRow stay out of line: inlined into
/// ReferenceSpGemm's row loop, GCC 12 keeps the inner loop's operands on
/// the stack; out of line it compiles to a register-only loop.
[[gnu::noinline]] size_t AccumulateRow(const CsrMatrix& a, const CsrMatrix& b,
                                       Index r, RowScratch* s) {
  size_t n = 0;
  const SpanView arow = a.Row(r);
  for (Offset k = 0; k < arow.size; ++k) {
    const Index j = arow.indices[k];
    const Value av = arow.values[k];
    const SpanView brow = b.Row(j);
    for (Offset l = 0; l < brow.size; ++l) {
      const Index c = brow.indices[l];
      n = s->Touch(c, n);
      s->acc[static_cast<size_t>(c)] += av * brow.values[l];
    }
  }
  return n;
}

/// Writes the row's `n` touched columns and their sums to `idx`/`val` in
/// ascending column order, and clears them from `s`. A row is either
/// sorted, O(n log n), or read back from the touched bitset's words with
/// countr_zero, O(cols/64 + n). On 1k-100k columns the scan measured
/// faster once n*log2(n) passed about cols/64, so rows past that are
/// scanned and sparser rows sorted. Both give the same ascending order, so
/// the choice never changes an output bit.
[[gnu::noinline]] void EmitRow(Index cols, size_t n, RowScratch* s,
                               Index* idx, Value* val) {
  if (64 * n * static_cast<size_t>(std::bit_width(n)) <=
      static_cast<size_t>(cols)) {
    Index* list = s->touched_cols.data();
    std::sort(list, list + n);
    for (size_t k = 0; k < n; ++k) {
      const Index c = list[k];
      idx[k] = c;
      val[k] = s->acc[static_cast<size_t>(c)];
      s->Clear(c);
    }
    return;
  }
  Value* acc = s->acc.data();
  for (size_t w = 0; w < s->touched.size(); ++w) {
    const auto base = static_cast<Index>(w * 64);
    for (uint64_t word = std::exchange(s->touched[w], 0); word != 0;
         word &= word - 1) {
      const Index c = base + std::countr_zero(word);
      *idx++ = c;
      *val++ = acc[c];
      acc[c] = 0.0;
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

  // One serial Gustavson loop at every thread count, with no symbolic
  // pass. The output is reserved once at flops(A*B), an upper bound on
  // nnz(C), instead of doubling, and grows by each row's size before the
  // row is written; reserved pages that no row reaches are never touched,
  // so they cost address space, not memory.
  std::vector<Offset> ptr(static_cast<size_t>(rows) + 1, 0);
  RowScratch s(cols);
  const auto bound = static_cast<size_t>(SpGemmFlops(a, b));
  IndexArray out_idx;
  ValueArray out_val;
  out_idx.reserve(bound);
  out_val.reserve(bound);
  for (Index r = 0; r < rows; ++r) {
    const size_t n = AccumulateRow(a, b, r, &s);
    const size_t begin = out_idx.size();
    out_idx.resize(begin + n);
    out_val.resize(begin + n);
    EmitRow(cols, n, &s, out_idx.data() + begin, out_val.data() + begin);
    ptr[static_cast<size_t>(r) + 1] = static_cast<Offset>(begin + n);
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
