#ifndef SPNET_CORE_AUTO_TUNE_H_
#define SPNET_CORE_AUTO_TUNE_H_

#include "core/reorganizer_config.h"
#include "gpusim/device_spec.h"
#include "sparse/csr_matrix.h"

namespace spnet {
namespace core {

/// Picks alpha and beta for a specific multiplication — the per-network
/// threshold selection the paper leaves manual ("the criteria for
/// classification can be changed by adjusting the value of alpha based on
/// the target sparse network characteristics", Section IV-B).
///
/// Strategy: instead of fixed multipliers over the mean, target bin
/// *populations* that the techniques digest well —
///   * dominators: about 4 blocks per SM after splitting amortizes, i.e.
///     the `4 * num_sms` heaviest pairs;
///   * limited rows: the heaviest 2% of nonzero output rows.
/// The matching alpha/beta are derived from the observed workload
/// distribution and clamped to alpha in [4, 256] and beta in [2, 64], so
/// a uniform matrix yields no dominators at all.
///
/// Returns a ReorganizerConfig whose alpha/beta are tuned for C = A*B on
/// `device`, from the exact precalculation (spgemm::BuildWorkload); all
/// other fields keep their defaults.
Result<ReorganizerConfig> AutoTune(const sparse::CsrMatrix& a,
                                   const sparse::CsrMatrix& b,
                                   const gpusim::DeviceSpec& device);

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_AUTO_TUNE_H_
