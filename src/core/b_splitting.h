#ifndef SPNET_CORE_B_SPLITTING_H_
#define SPNET_CORE_B_SPLITTING_H_

#include <cstdint>
#include <vector>

#include "core/reorganizer_config.h"
#include "gpusim/device_spec.h"
#include "sparse/types.h"
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {
struct ExecContext;
}  // namespace spgemm

namespace core {

/// The complete B-Splitting transformation of one multiplication, indexed
/// by fragment. Each dominator pair is split into 2^n fragments that are
/// contiguous sub-ranges of its column of A (the paper rewrites the copied
/// column's pointer values to carve these ranges); each fragment
/// multiplies its sub-column with the *whole* B row. A pair's fragments
/// are consecutive, in dominator order, and fragment f covers the column
/// elements [col_begin[f], col_end[f]).
struct SplitPlan {
  /// The paper's mapper array: fragment id -> original pair id, in
  /// dispatch order.
  std::vector<sparse::Index> mapper;
  std::vector<int64_t> col_begin;
  std::vector<int64_t> col_end;
  /// Elements copied into the temporary matrices A'/B' — the host-side
  /// preprocessing cost the paper includes in its timings.
  int64_t copied_elements = 0;
};

/// Chooses each dominator's splitting factor and fragment boundaries.
///
/// Heuristic (Section IV-C1): fragments must outnumber the SMs (factor of
/// at least the next power of two above 2x num_sms) while every fragment
/// keeps at least one column element; `config.splitting_factor_override`
/// forces a uniform factor for the Figure 11/12 sweeps.
///
/// With a context, records a "b-splitting" span, splitting.* gauges
/// (fragments, copied elements, split vectors) and a
/// splitting.factor histogram (one observation per split pair).
SplitPlan BuildSplitPlan(const spgemm::Workload& workload,
                         const std::vector<sparse::Index>& dominators,
                         const ReorganizerConfig& config,
                         const gpusim::DeviceSpec& device,
                         spgemm::ExecContext* ctx = nullptr);

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_B_SPLITTING_H_
