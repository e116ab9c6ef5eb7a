#include "core/b_gathering.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "common/math_util.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace core {

using sparse::Index;

GatherPlan BuildGatherPlan(const spgemm::Workload& workload,
                           const std::vector<Index>& low_performers,
                           const ReorganizerConfig& config,
                           spgemm::ExecContext* ctx) {
  metrics::ScopedSpan span(spgemm::TraceOf(ctx), "b-gathering");
  GatherPlan plan;

  // Bin n holds pairs whose effective thread count fits in 2^n lanes
  // (2^(n-1) < eff <= 2^n); low performers have eff < 32 so quotas go up
  // to 32. The paper packs into 32-thread blocks (gathering factor
  // 32/2^n); our combined blocks are block_size threads, which extends
  // gathering to the 17..31-lane bin as well (factor block_size/32).
  constexpr int kBins = 6;
  constexpr uint8_t kSolo = kBins;  // not gathered
  const size_t count = low_performers.size();
  std::vector<uint8_t> bin_of(count, kSolo);
  int64_t bin_size[kBins] = {};
  int64_t max_work = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t pair = static_cast<size_t>(low_performers[i]);
    const int64_t eff = workload.b_row_nnz[pair];
    if (eff <= 0) continue;
    const int bin = Log2Floor(NextPow2(eff));
    if (bin >= kBins) {
      plan.ungathered.push_back(low_performers[i]);
      continue;
    }
    bin_of[i] = static_cast<uint8_t>(bin);
    ++bin_size[bin];
    max_work = std::max(max_work, workload.a_col_nnz[pair]);
  }

  int capacity[kBins];
  for (int n = 0; n < kBins; ++n) {
    capacity[n] = std::max(1, config.block_size / (1 << n));
    if (bin_size[n] == 0 || (capacity[n] > 1 && bin_size[n] >= 2)) continue;
    // Gathering factor 1 (or a single member) gains nothing; keep the
    // blocks as they are to avoid serialization (paper Fig. 6, bin 3).
    for (size_t i = 0; i < count; ++i) {
      if (bin_of[i] != n) continue;
      plan.ungathered.push_back(low_performers[i]);
      bin_of[i] = kSolo;
    }
    bin_size[n] = 0;
  }

  // Order by per-thread work (the A-column length) so the micro-blocks
  // sharing a warp run similar lock-step iteration counts: a stable
  // counting sort of every gathered pair by a_col_nnz, descending.
  auto rank = [&](size_t i) {
    return static_cast<size_t>(
        max_work - workload.a_col_nnz[static_cast<size_t>(low_performers[i])]);
  };
  std::vector<int64_t> next(static_cast<size_t>(max_work) + 2, 0);
  for (size_t i = 0; i < count; ++i) {
    if (bin_of[i] != kSolo) ++next[rank(i) + 1];
  }
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<size_t> by_work(static_cast<size_t>(next.back()));
  for (size_t i = 0; i < count; ++i) {
    if (bin_of[i] != kSolo) by_work[static_cast<size_t>(next[rank(i)]++)] = i;
  }

  // Cut each bin into blocks, then fill the bins in that order.
  int64_t cursor[kBins];
  for (int n = 0; n < kBins; ++n) {
    cursor[n] = plan.block_offsets.back();
    const int64_t bin_end = cursor[n] + bin_size[n];
    for (int64_t begin = cursor[n]; begin < bin_end; begin += capacity[n]) {
      plan.block_offsets.push_back(std::min(bin_end, begin + capacity[n]));
      plan.micro_threads.push_back(1 << n);
    }
  }
  plan.pairs.resize(by_work.size());
  for (size_t i : by_work) {
    plan.pairs[static_cast<size_t>(cursor[bin_of[i]]++)] = low_performers[i];
  }
  spgemm::SetGauge(ctx, "gathering.combined_blocks",
                   static_cast<double>(plan.num_blocks()));
  spgemm::SetGauge(ctx, "gathering.gathered_pairs",
                   static_cast<double>(plan.gathered_pairs()));
  spgemm::SetGauge(ctx, "gathering.ungathered_pairs",
                   static_cast<double>(plan.ungathered.size()));
  return plan;
}

}  // namespace core
}  // namespace spnet
