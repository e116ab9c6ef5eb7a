#include "spgemm/algorithm.h"

#include "gpusim/kernel_desc.h"
#include "spgemm/exec_context.h"
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
  return PlanImpl(a, b, device, ctx);
}

Result<sparse::CsrMatrix> SpGemmAlgorithm::Compute(const sparse::CsrMatrix& a,
                                                   const sparse::CsrMatrix& b,
                                                   ExecContext* ctx) const {
  metrics::ScopedSpan span(TraceOf(ctx), "compute:" + name());
  ScopedPoolStats pool_stats(ctx);
  SPNET_RETURN_IF_ERROR(verify::MaybeInjectFault(verify::kSiteCompute));
  return ComputeImpl(a, b, ctx);
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
