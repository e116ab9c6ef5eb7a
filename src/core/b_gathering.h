#ifndef SPNET_CORE_B_GATHERING_H_
#define SPNET_CORE_B_GATHERING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/reorganizer_config.h"
#include "sparse/types.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {
struct ExecContext;
}  // namespace spgemm

namespace core {

/// The complete B-Gathering transformation. Combined block i packs the
/// micro-blocks pairs[block_offsets[i], block_offsets[i + 1]), each granted
/// micro_threads[i] lanes (the power-of-two bin quota), until the block is
/// full. With bin quota 2^n the gathering factor is block_size / 2^n, the
/// paper's 32/2^n scaled to the launch block size.
struct GatherPlan {
  std::vector<sparse::Index> pairs;  ///< block after block, by quota
  std::vector<int64_t> block_offsets = {0};
  std::vector<int> micro_threads;  ///< lane quota per block (2^n)
  /// Pairs that stayed solo (their bin would gain nothing or serialize).
  std::vector<sparse::Index> ungathered;

  size_t num_blocks() const { return micro_threads.size(); }
  int64_t gathered_pairs() const { return static_cast<int64_t>(pairs.size()); }
  std::span<const sparse::Index> block_pairs(size_t i) const {
    return {pairs.begin() + block_offsets[i],
            pairs.begin() + block_offsets[i + 1]};
  }
};

/// Bins low-performer pairs by the power of two covering their effective
/// thread count (nnz of the B row), orders each bin by per-thread work
/// (a_col_nnz descending) so lock-step warps carry similar lanes, and packs
/// micro-blocks into combined blocks of `config.block_size` threads.
/// The order is one stable counting sort by a_col_nnz (at most a.rows()),
/// then a stable split into the bins: O(low performers + largest key).
/// Both classifiers emit `low_performers` ascending, so ties keep ascending
/// pair order.
/// With a context, records a "b-gathering" span and gathering.* gauges
/// (combined blocks, gathered pairs, ungathered pairs).
GatherPlan BuildGatherPlan(const spgemm::Workload& workload,
                           const std::vector<sparse::Index>& low_performers,
                           const ReorganizerConfig& config,
                           spgemm::ExecContext* ctx = nullptr);

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_B_GATHERING_H_
