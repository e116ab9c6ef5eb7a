#include "sparse/stats.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace spnet {
namespace sparse {

DegreeStats ComputeRowStats(const CsrMatrix& m) {
  DegreeStats s;
  const Index n = m.rows();
  if (n == 0) return s;

  std::vector<Offset> deg(static_cast<size_t>(n));
  for (Index r = 0; r < n; ++r) deg[static_cast<size_t>(r)] = m.RowNnz(r);

  s.min_nnz = *std::min_element(deg.begin(), deg.end());
  s.max_nnz = *std::max_element(deg.begin(), deg.end());

  double sum = 0.0;
  int64_t below_warp = 0;
  for (Offset d : deg) {
    sum += static_cast<double>(d);
    if (d < 32) ++below_warp;
  }
  s.mean_nnz = sum / n;
  s.frac_rows_below_warp = static_cast<double>(below_warp) / n;

  double var = 0.0;
  for (Offset d : deg) {
    const double diff = static_cast<double>(d) - s.mean_nnz;
    var += diff * diff;
  }
  var /= n;
  s.cv = s.mean_nnz > 0 ? std::sqrt(var) / s.mean_nnz : 0.0;

  // Gini via the sorted-rank formula:
  //   G = (2 * sum_i i*x_(i) / (n * sum x)) - (n + 1) / n,  i in [1, n].
  std::sort(deg.begin(), deg.end());
  double weighted = 0.0;
  for (size_t i = 0; i < deg.size(); ++i) {
    weighted += static_cast<double>(i + 1) * static_cast<double>(deg[i]);
  }
  if (sum > 0) {
    s.gini = 2.0 * weighted / (static_cast<double>(n) * sum) -
             (static_cast<double>(n) + 1.0) / n;
  }
  return s;
}

int64_t SpGemmFlops(const CsrMatrix& a, const CsrMatrix& b) {
  int64_t flops = 0;
  for (Index r = 0; r < a.rows(); ++r) {
    const SpanView row = a.Row(r);
    for (Offset k = 0; k < row.size; ++k) {
      flops += b.RowNnz(row.indices[k]);
    }
  }
  return flops;
}

std::vector<int64_t> SpGemmRowFlops(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<int64_t> flops(static_cast<size_t>(a.rows()), 0);
  // Each row's count is independent, so the rows parallelize trivially.
  SPNET_CHECK_OK(ParallelFor(0, a.rows(), GrainForItems(a.rows(), GlobalThreadCount()),
              [&](int64_t row_begin, int64_t row_end, int) {
                for (int64_t r = row_begin; r < row_end; ++r) {
                  const SpanView row = a.Row(static_cast<Index>(r));
                  int64_t f = 0;
                  for (Offset k = 0; k < row.size; ++k) {
                    f += b.RowNnz(row.indices[k]);
                  }
                  flops[static_cast<size_t>(r)] = f;
                }
                return Status::Ok();
              }));
  return flops;
}

std::vector<int64_t> OuterProductPairWork(const CsrMatrix& a,
                                          const CsrMatrix& b) {
  // nnz per column of A, counted without materializing the transpose.
  std::vector<int64_t> col_nnz(static_cast<size_t>(a.cols()), 0);
  for (Index c : a.indices()) col_nnz[static_cast<size_t>(c)]++;

  std::vector<int64_t> work(static_cast<size_t>(a.cols()), 0);
  for (Index i = 0; i < a.cols(); ++i) {
    const int64_t brow = (i < b.rows()) ? b.RowNnz(i) : 0;
    work[static_cast<size_t>(i)] = col_nnz[static_cast<size_t>(i)] * brow;
  }
  return work;
}

}  // namespace sparse
}  // namespace spnet
