#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace spnet {
namespace perfbench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return rng.NextU64();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

HostUsage HostUsage::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  HostUsage out;
  out.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  out.minor_faults = usage.ru_minflt;
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

void CollectSpans(const spgemm::ExecContext& ctx,
                  std::map<std::string, std::vector<double>>* spans_ms) {
  for (const metrics::TraceSpan& span : ctx.trace.spans()) {
    if (span.duration_ms >= 0.0) {
      (*spans_ms)[span.name].push_back(span.duration_ms);
    }
  }
}

double SnapshotValue(const std::map<std::string, double>& snapshot,
                     const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

}  // namespace perfbench
}  // namespace spnet
