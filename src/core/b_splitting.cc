#include "core/b_splitting.h"

#include <algorithm>

#include "common/math_util.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace core {

using sparse::Index;

SplitPlan BuildSplitPlan(const spgemm::Workload& workload,
                         const std::vector<Index>& dominators,
                         const ReorganizerConfig& config,
                         const gpusim::DeviceSpec& device,
                         spgemm::ExecContext* ctx) {
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "b-splitting");
  SplitPlan plan;
  int64_t split_pairs = 0;

  for (Index pair : dominators) {
    const int64_t col_nnz = workload.a_col_nnz[static_cast<size_t>(pair)];
    const int64_t row_nnz = workload.b_row_nnz[static_cast<size_t>(pair)];
    if (col_nnz <= 0 || row_nnz <= 0) continue;

    int64_t factor;
    if (config.splitting_factor_override > 0) {
      factor = NextPow2(config.splitting_factor_override);
    } else {
      // Spread each dominator past the SM count so the fragments can
      // occupy the whole device...
      factor = NextPow2(2 * device.num_sms);
    }
    // ...but never below one column element per fragment (the column is
    // the per-thread loop; an empty fragment would be a no-op block).
    factor = std::min(factor, PrevPow2(std::max<int64_t>(col_nnz, 1)));
    factor = std::max<int64_t>(factor, 1);

    // Even carve with remainder spread over the leading fragments: the
    // pointer-expansion trick shifts elements to the next vector
    // sequentially, which produces exactly this shape.
    const int64_t base = col_nnz / factor;
    const int64_t rem = col_nnz % factor;
    int64_t cursor = 0;
    for (int64_t f = 0; f < factor; ++f) {
      plan.mapper.push_back(pair);
      plan.col_begin.push_back(cursor);
      cursor += base + (f < rem ? 1 : 0);
      plan.col_end.push_back(cursor);
    }

    ++split_pairs;
    // The dominator column and row vectors are copied into A'/B' on the
    // host before pointer expansion.
    plan.copied_elements += col_nnz + row_nnz;
    spgemm::ObserveHistogram(ctx, "splitting.factor", factor);
  }
  spgemm::SetGauge(ctx, "splitting.split_vectors",
                   static_cast<double>(split_pairs));
  spgemm::SetGauge(ctx, "splitting.fragments",
                   static_cast<double>(plan.mapper.size()));
  spgemm::SetGauge(ctx, "splitting.copied_elements",
                   static_cast<double>(plan.copied_elements));
  return plan;
}

}  // namespace core
}  // namespace spnet
