#ifndef SPNET_SPGEMM_ALGORITHM_H_
#define SPNET_SPGEMM_ALGORITHM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gpusim/device_spec.h"
#include "gpusim/simulator.h"
#include "sparse/csr_matrix.h"
#include "spgemm/plan.h"

namespace spnet {
namespace spgemm {

struct ExecContext;

/// One spGEMM implementation under evaluation: it can (1) really compute
/// C = A*B on the host, structured the way the algorithm structures the
/// work (expansion + merge), and (2) emit the workload plan its GPU
/// execution would dispatch, for the SIMT timing model.
///
/// The entry points follow the non-virtual-interface pattern: callers use
/// the public Plan/Compute, which accept an optional ExecContext for
/// observability (trace spans around each call, thread-pool counters) and
/// delegate to the protected virtuals. Implementations override
/// PlanImpl/ComputeImpl and may record their own pass-level metrics
/// against the context; a null context must be (and is, via the
/// null-tolerant helpers in exec_context.h) a cheap no-op.
class SpGemmAlgorithm {
 public:
  virtual ~SpGemmAlgorithm() = default;

  /// Short identifier used in benchmark tables ("row-product", ...).
  virtual std::string name() const = 0;

  /// Builds the simulation plan for C = A*B on `device`.
  Result<SpGemmPlan> Plan(const sparse::CsrMatrix& a,
                          const sparse::CsrMatrix& b,
                          const gpusim::DeviceSpec& device,
                          ExecContext* ctx = nullptr) const;

  /// Functionally computes C = A*B (host execution of the same algorithm
  /// structure); validated against ReferenceSpGemm in the test suite.
  Result<sparse::CsrMatrix> Compute(const sparse::CsrMatrix& a,
                                    const sparse::CsrMatrix& b,
                                    ExecContext* ctx = nullptr) const;

 protected:
  virtual Result<SpGemmPlan> PlanImpl(const sparse::CsrMatrix& a,
                                      const sparse::CsrMatrix& b,
                                      const gpusim::DeviceSpec& device,
                                      ExecContext* ctx) const = 0;

  virtual Result<sparse::CsrMatrix> ComputeImpl(const sparse::CsrMatrix& a,
                                                const sparse::CsrMatrix& b,
                                                ExecContext* ctx) const = 0;
};

/// Simulates `algorithm` on `device` and returns the timing profile. With
/// a context, records a "measure:<name>" span (planning nested inside, the
/// kernel-simulation loop under "simulate") plus sim.* counters and
/// measure.* gauges.
Result<SpGemmMeasurement> Measure(const SpGemmAlgorithm& algorithm,
                                  const sparse::CsrMatrix& a,
                                  const sparse::CsrMatrix& b,
                                  const gpusim::DeviceSpec& device,
                                  ExecContext* ctx = nullptr);

/// The simulation tail of Measure() for an already-built plan: runs every
/// kernel on `device` and aggregates the measurement. The batch engine
/// calls it once per plan-cache miss and caches the result next to the
/// plan, so later hits skip both Plan() and this. Records the same
/// "simulate" span, sim.* counters and measure.* gauges as Measure().
Result<SpGemmMeasurement> SimulatePlan(const SpGemmPlan& plan,
                                       const gpusim::DeviceSpec& device,
                                       ExecContext* ctx = nullptr);

/// The named baselines individually. (core/suite.h assembles the full
/// Figure 8/9 comparison including the Block Reorganizer.)
std::unique_ptr<SpGemmAlgorithm> MakeRowProduct();
std::unique_ptr<SpGemmAlgorithm> MakeOuterProduct();
std::unique_ptr<SpGemmAlgorithm> MakeCusparseLike();
std::unique_ptr<SpGemmAlgorithm> MakeCuspLike();
std::unique_ptr<SpGemmAlgorithm> MakeBhsparseLike();
std::unique_ptr<SpGemmAlgorithm> MakeMklLike();

/// Extension comparisons from the paper's related-work discussion (not
/// part of the Figure 8 suite): AC-spGEMM's chunk-balanced row product
/// (Winter et al., PPoPP'19) and hash-based fused Gustavson (nsparse).
std::unique_ptr<SpGemmAlgorithm> MakeAcSpGemmLike();
std::unique_ptr<SpGemmAlgorithm> MakeNsparseLike();

}  // namespace spgemm
}  // namespace spnet

#endif  // SPNET_SPGEMM_ALGORITHM_H_
