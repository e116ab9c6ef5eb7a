#ifndef SPNET_PERFBENCH_STATS_H_
#define SPNET_PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spgemm/exec_context.h"

namespace spnet {
namespace perfbench {

/// Seconds on the monotonic clock since a process-wide origin. Every
/// timestamp the benchmark compares (due, submit, callback) uses this.
double NowSeconds();

/// Deterministic 64-bit mix of (seed, stream); derives per-operand and
/// per-request seeds from the run seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// q-quantile (q in [0, 1]) of exact samples, interpolating linearly
/// between closest ranks. 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Process CPU time and page faults so far (getrusage).
struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;

  static HostUsage Now();
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Duration of every closed span in `ctx`'s trace, appended by span name.
void CollectSpans(const spgemm::ExecContext& ctx,
                  std::map<std::string, std::vector<double>>* spans_ms);

/// The value of `name` in a Registry::Snapshot(), or 0 when absent.
double SnapshotValue(const std::map<std::string, double>& snapshot,
                     const std::string& name);

/// What one workload run measured. `metrics` holds the contract metrics
/// (end-to-end or per-layer, by run mode); `notes` are extra figures that
/// are printed but not part of the JSON result.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  struct Note {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Note> notes;

  void AddNote(const std::string& name, double value,
               const std::string& unit) {
    notes.push_back({name, value, unit});
  }
};

}  // namespace perfbench
}  // namespace spnet

#endif  // SPNET_PERFBENCH_STATS_H_
