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
///     the `dominator_target_per_sm * num_sms` heaviest pairs;
///   * limited rows: the heaviest `limited_row_fraction` of nonzero
///     output rows.
/// The matching alpha/beta are derived from the observed workload
/// distribution and clamped to sane ranges, so a uniform matrix yields no
/// dominators at all.
struct AutoTuneOptions {
  double dominator_target_per_sm = 4.0;
  double limited_row_fraction = 0.02;
  double min_alpha = 4.0;
  double max_alpha = 256.0;
  double min_beta = 2.0;
  double max_beta = 64.0;
};

/// Returns a ReorganizerConfig whose alpha/beta are tuned for C = A*B on
/// `device`, from the exact precalculation (spgemm::BuildWorkload); all
/// other fields keep their defaults.
Result<ReorganizerConfig> AutoTune(const sparse::CsrMatrix& a,
                                   const sparse::CsrMatrix& b,
                                   const gpusim::DeviceSpec& device,
                                   const AutoTuneOptions& options = {});

}  // namespace core
}  // namespace spnet

#endif  // SPNET_CORE_AUTO_TUNE_H_
