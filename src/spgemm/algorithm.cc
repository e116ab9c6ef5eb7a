#include "spgemm/algorithm.h"

#include <algorithm>
#include <string>

#include "gpusim/kernel_desc.h"
#include "spgemm/exec_context.h"
#include "spgemm/functional.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace spgemm {

Result<SpGemmPlan> SpGemmAlgorithm::Plan(const sparse::CsrMatrix& a,
                                         const sparse::CsrMatrix& b,
                                         const gpusim::DeviceSpec& device,
                                         ExecContext* ctx) const {
  metrics::ScopedSpan span(TraceOf(ctx), "plan:" + name());
  ScopedPoolStats pool_stats(ctx);
  // Fault-injection boundary: every algorithm's plan construction funnels
  // through this NVI, so one site covers the whole registry.
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSitePlan));
  SPNET_RETURN_IF_ERROR(CheckOperands(name(), a, b));
  const Workload workload = BuildWorkload(a, b, ctx);
  SPNET_ASSIGN_OR_RETURN(SpGemmPlan plan, PlanImpl(workload, device, ctx));
  plan.flops = workload.flops;
  plan.output_nnz = workload.output_nnz;
  return plan;
}

Result<sparse::CsrMatrix> SpGemmAlgorithm::Compute(const sparse::CsrMatrix& a,
                                                   const sparse::CsrMatrix& b,
                                                   ExecContext* ctx) const {
  metrics::ScopedSpan span(TraceOf(ctx), "compute:" + name());
  ScopedPoolStats pool_stats(ctx);
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteCompute));
  SPNET_RETURN_IF_ERROR(CheckOperands(name(), a, b));
  return ComputeImpl(a, b, ctx);
}

Result<sparse::CsrMatrix> SpGemmAlgorithm::ComputeImpl(
    const sparse::CsrMatrix& a, const sparse::CsrMatrix& b,
    ExecContext*) const {
  return RowProductExpandMerge(a, b);
}

Status CheckProductBound(const std::string& who, int64_t nnz_a,
                         int64_t max_b_row_nnz) {
  if (static_cast<__int128>(nnz_a) * max_b_row_nnz <= kMaxProducts) {
    return Status::Ok();
  }
  std::string message = who;
  message += ": nnz(A) = ";
  message += std::to_string(nnz_a);
  message += " times max nnz(B row) = ";
  message += std::to_string(max_b_row_nnz);
  message += " exceeds the bound of ";
  message += std::to_string(kMaxProducts);
  message += " products";
  return Status::InvalidArgument(message);
}

Status CheckOperands(const std::string& who, const sparse::CsrMatrix& a,
                     const sparse::CsrMatrix& b) {
  if (a.cols() != b.rows()) {
    std::string message = who;
    message += ": A has ";
    message += std::to_string(a.cols());
    message += " columns but B has ";
    message += std::to_string(b.rows());
    message += " rows";
    return Status::InvalidArgument(message);
  }
  sparse::Offset max_b_row_nnz = 0;
  for (sparse::Index r = 0; r < b.rows(); ++r) {
    max_b_row_nnz = std::max(max_b_row_nnz, b.RowNnz(r));
  }
  return CheckProductBound(who, a.nnz(), max_b_row_nnz);
}

Result<SpGemmMeasurement> Measure(const SpGemmAlgorithm& algorithm,
                                  const sparse::CsrMatrix& a,
                                  const sparse::CsrMatrix& b,
                                  const gpusim::DeviceSpec& device,
                                  ExecContext* ctx) {
  metrics::ScopedSpan span(TraceOf(ctx), "measure:" + algorithm.name());
  ScopedPoolStats pool_stats(ctx);
  SPNET_ASSIGN_OR_RETURN(SpGemmPlan plan, algorithm.Plan(a, b, device, ctx));
  return SimulatePlan(plan, device, ctx);
}

Result<SpGemmMeasurement> SimulatePlan(const SpGemmPlan& plan,
                                       const gpusim::DeviceSpec& device,
                                       ExecContext* ctx) {
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteSimulate));
  gpusim::Simulator sim(device);

  SpGemmMeasurement m;
  m.stats.sm_busy_cycles.assign(static_cast<size_t>(device.num_sms), 0.0);
  m.expansion.sm_busy_cycles.assign(static_cast<size_t>(device.num_sms), 0.0);
  m.merge.sm_busy_cycles.assign(static_cast<size_t>(device.num_sms), 0.0);
  {
    metrics::ScopedSpan sim_span(TraceOf(ctx), "simulate");
    for (const gpusim::KernelDesc& k : plan.kernels) {
      SPNET_ASSIGN_OR_RETURN(gpusim::KernelStats s, sim.RunKernel(k));
      m.stats.Accumulate(s);
      if (k.phase == gpusim::Phase::kExpansion) {
        m.expansion.Accumulate(s);
      } else if (k.phase == gpusim::Phase::kMerge) {
        m.merge.Accumulate(s);
      }
      AddCounter(ctx, "sim.kernels_run", 1);
      AddCounter(ctx, "sim.blocks", s.num_blocks);
      AddCounter(ctx, "sim.warps", s.num_warps);
    }
  }
  m.stats.seconds = device.CyclesToSeconds(m.stats.cycles);
  m.expansion.seconds = device.CyclesToSeconds(m.expansion.cycles);
  m.merge.seconds = device.CyclesToSeconds(m.merge.cycles);
  m.host_seconds = plan.host_seconds;
  m.total_seconds = m.stats.seconds + plan.host_seconds;
  m.flops = plan.flops;
  m.output_nnz = plan.output_nnz;

  // Re-running Measure against the same context overwrites these: they
  // describe the latest measurement, not an accumulation.
  SetGauge(ctx, "measure.sim_seconds", m.stats.seconds);
  SetGauge(ctx, "measure.expansion_seconds", m.expansion.seconds);
  SetGauge(ctx, "measure.merge_seconds", m.merge.seconds);
  SetGauge(ctx, "measure.host_seconds", m.host_seconds);
  SetGauge(ctx, "measure.total_seconds", m.total_seconds);
  SetGauge(ctx, "measure.flops", static_cast<double>(m.flops));
  SetGauge(ctx, "measure.output_nnz", static_cast<double>(m.output_nnz));
  SetGauge(ctx, "measure.gflops", m.Gflops());
  SetGauge(ctx, "measure.sync_stall_fraction", m.stats.SyncStallFraction());
  SetGauge(ctx, "measure.lbi", m.stats.Lbi());
  return m;
}

}  // namespace spgemm
}  // namespace spnet
