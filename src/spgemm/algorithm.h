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
#include "spgemm/workload_model.h"

namespace spnet {
namespace spgemm {

struct ExecContext;

/// One spGEMM implementation under evaluation: it can (1) really compute
/// C = A*B on the host, and (2) emit the workload plan its GPU execution
/// would dispatch, for the SIMT timing model. Every Compute runs the one
/// host row kernel (RowProductExpandMerge); the Block Reorganizer first
/// reorders each row of A into its dispatch order, so its sums are
/// accumulated in the order the GPU merge would add them.
///
/// The entry points follow the non-virtual-interface pattern: callers use
/// the public Plan/Compute, which accept an optional ExecContext for
/// observability (trace spans around each call, thread-pool counters) and
/// delegate to the protected virtuals. Both refuse operands whose inner
/// extents differ or whose product count could overflow (CheckOperands),
/// so no implementation checks shapes or overflow. Plan also builds
/// the one Workload of the operands (the paper's precalculation pass),
/// hands it to PlanImpl and stamps the plan's flops and output nnz from
/// it. Implementations override PlanImpl/ComputeImpl and may record their
/// own pass-level metrics against the context; a null context must be
/// (and is, via the null-tolerant helpers in exec_context.h) a cheap
/// no-op.
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
  /// Builds the kernels and host seconds of the plan from the operands'
  /// workload; Plan sets flops and output_nnz afterwards.
  virtual Result<SpGemmPlan> PlanImpl(const Workload& workload,
                                      const gpusim::DeviceSpec& device,
                                      ExecContext* ctx) const = 0;

  /// Defaults to RowProductExpandMerge. Most baselines differ from the
  /// row product only in how the GPU schedules the work, which their
  /// PlanImpl models, not in the product they compute. The Block
  /// Reorganizer overrides it only to reorder A's rows into its dispatch
  /// order before running the same kernel.
  virtual Result<sparse::CsrMatrix> ComputeImpl(const sparse::CsrMatrix& a,
                                                const sparse::CsrMatrix& b,
                                                ExecContext* ctx) const;
};

/// The largest U = nnz(A) * max nnz(B row) an operand pair may have. U
/// bounds every count a plan derives from the operands: each pair work,
/// row_chat and output_nnz, and flops = sum_i a_col_nnz[i] * b_row_nnz[i]
/// <= nnz(A) * max nnz(B row). The constant leaves room below 2^63 for the
/// largest factor per product that any planner, kernel builder or the
/// simulator applies on top:
///  - issued lane slots (crit_ops * threads, summed over blocks): a
///    256-thread block of one row per lane charges its longest row to all
///    256 lanes, and cuSPARSE-like runs a symbolic pass (ops x 1) and a
///    numeric pass (ops x (1 + 2.5 log2(2 + mean chat)) <= 118.5 at
///    U = 2^47) over every row, so 256 * 119.5 < 2^15 slots per product;
///    its write-out adds 256 lanes per 8192 outputs;
///  - bytes: a per-lane cold read of 32 bytes plus 3 of A and 18 scattered
///    written, times bhSPARSE's traffic multiplier 2.2, or CUSP's expansion
///    and five sort passes of 40 bytes: under 2^9 bytes per product.
/// So every such total stays below 2^47 * 2^15 = 2^62. The bound refuses,
/// for example, 2^31 nonzeros in A against a B row longer than 65,536, or
/// 10^8 nonzeros against a B row longer than about 1.4 million.
inline constexpr int64_t kMaxProducts = int64_t{1} << 47;

/// Ok when nnz_a * max_b_row_nnz <= kMaxProducts (computed in 128 bits, so
/// no pair of int64 counts overflows it); otherwise InvalidArgument naming
/// `who` and both counts.
Status CheckProductBound(const std::string& who, int64_t nnz_a,
                         int64_t max_b_row_nnz);

/// The one operand check. Ok when A's columns match B's rows (otherwise
/// InvalidArgument naming `who` and both extents) and the pair passes
/// CheckProductBound, with B's longest row read from its row pointers in
/// O(rows). Plan and Compute run it for every algorithm; Analyze, AutoTune
/// and VerifyReorganizerInvariants run it before their BuildWorkload.
Status CheckOperands(const std::string& who, const sparse::CsrMatrix& a,
                     const sparse::CsrMatrix& b);

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
