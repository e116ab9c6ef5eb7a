#include "gpusim/profiler.h"

#include <algorithm>
#include <cstdio>

#include "metrics/registry.h"

namespace spnet {
namespace gpusim {

namespace {

void ExportStats(metrics::Registry* registry, const std::string& prefix,
                 const KernelStats& stats) {
  registry->SetGauge(prefix + ".cycles", stats.cycles);
  registry->SetGauge(prefix + ".ms", stats.seconds * 1e3);
  registry->SetGauge(prefix + ".blocks",
                     static_cast<double>(stats.num_blocks));
  registry->SetGauge(prefix + ".warps", static_cast<double>(stats.num_warps));
  registry->SetGauge(prefix + ".occupancy", stats.avg_resident_blocks);
  registry->SetGauge(prefix + ".sync_stall_fraction",
                     stats.SyncStallFraction());
  registry->SetGauge(prefix + ".l2_gbs", stats.L2ReadThroughputGBs() +
                                             stats.L2WriteThroughputGBs());
  registry->SetGauge(prefix + ".lbi", stats.Lbi());
  registry->SetGauge(prefix + ".sm_utilization", stats.SmUtilization());
}

}  // namespace

Status Profiler::Profile(const std::vector<KernelDesc>& kernels) {
  profiles_.clear();
  profiles_.reserve(kernels.size());
  for (const KernelDesc& k : kernels) {
    SPNET_ASSIGN_OR_RETURN(KernelStats stats, simulator_.RunKernel(k));
    KernelProfile p;
    p.label = k.label;
    p.phase = k.phase;
    p.stats = std::move(stats);
    profiles_.push_back(std::move(p));
  }
  return Status::Ok();
}

KernelStats Profiler::Total() const {
  KernelStats total;
  total.sm_busy_cycles.assign(
      static_cast<size_t>(simulator_.device().num_sms), 0.0);
  for (const KernelProfile& p : profiles_) total.Accumulate(p.stats);
  total.seconds = simulator_.device().CyclesToSeconds(total.cycles);
  return total;
}

std::string Profiler::ReportTable() const {
  const double total_cycles = std::max(Total().cycles, 1.0);
  std::string out =
      "kernel                        phase       time%    ms       blocks"
      "    stall%   L2 GB/s   LBI\n";
  char line[160];
  for (const KernelProfile& p : profiles_) {
    std::snprintf(
        line, sizeof(line),
        "%-28s  %-10s  %5.1f  %8.3f  %8lld  %6.1f  %8.1f  %5.2f\n",
        p.label.c_str(), PhaseName(p.phase),
        100.0 * p.stats.cycles / total_cycles, p.stats.seconds * 1e3,
        static_cast<long long>(p.stats.num_blocks),
        100.0 * p.stats.SyncStallFraction(),
        p.stats.L2ReadThroughputGBs() + p.stats.L2WriteThroughputGBs(),
        p.stats.Lbi());
    out += line;
  }
  return out;
}

std::string Profiler::SmHistogram(size_t kernel_index, int width) const {
  if (kernel_index >= profiles_.size()) return "";
  const KernelStats& stats = profiles_[kernel_index].stats;
  std::vector<double> busy = stats.sm_busy_cycles;
  std::sort(busy.begin(), busy.end(), std::greater<double>());
  const double max_busy = busy.empty() ? 0.0 : busy.front();
  std::string out;
  char line[160];
  for (size_t i = 0; i < busy.size(); ++i) {
    const int bar =
        max_busy > 0
            ? static_cast<int>(busy[i] / max_busy * width + 0.5)
            : 0;
    std::snprintf(line, sizeof(line), "SM %2zu |%-*s| %5.1f%%\n", i, width,
                  std::string(static_cast<size_t>(bar), '#').c_str(),
                  max_busy > 0 ? 100.0 * busy[i] / max_busy : 0.0);
    out += line;
  }
  return out;
}

void Profiler::ExportMetrics(metrics::Registry* registry,
                             const std::string& prefix) const {
  if (registry == nullptr) return;
  // Duplicate labels within one pipeline (e.g. several merge kernels)
  // get a positional suffix so each keeps its own gauges.
  std::vector<std::string> seen;
  for (const KernelProfile& p : profiles_) {
    const size_t duplicates =
        static_cast<size_t>(std::count(seen.begin(), seen.end(), p.label));
    seen.push_back(p.label);
    // Appended piece by piece: GCC 12 at -O3 reports a false -Wrestrict
    // for `"#" + std::to_string(...)`, which inserts at the front.
    std::string key = prefix;
    key += '.';
    key += p.label;
    if (duplicates > 0) {
      key += '#';
      key += std::to_string(duplicates);
    }
    ExportStats(registry, key, p.stats);
  }
  ExportStats(registry, prefix + ".total", Total());
  registry->SetGauge(prefix + ".kernels",
                     static_cast<double>(profiles_.size()));
}

}  // namespace gpusim
}  // namespace spnet
