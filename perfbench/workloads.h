#ifndef SPNET_PERFBENCH_WORKLOADS_H_
#define SPNET_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "stats.h"

namespace spnet {
namespace perfbench {

/// One benchmark run, as given on the command line.
struct RunArgs {
  uint64_t seed = 1;
  /// Measured time of the run. A traced run splits it in two halves: an
  /// untraced pass and a traced pass over the same work.
  double seconds = 10.0;
  bool trace = false;
};

/// How many times set-up is repeated; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// multiply-powerlaw: closed loop, one caller, C = A^2 on the host.
Outcome RunMultiply(const RunArgs& args);

/// serve-cold / serve-warm: open-loop Poisson traffic into serve::Server.
Outcome RunServe(const RunArgs& args, bool warm);

/// Offered request rate of a serve workload, in requests per second.
double ServeRate(bool warm);

/// Due times (seconds from the start of the run) of the open-loop Poisson
/// schedule of run seed `seed`: round(rate * seconds) arrivals placed as
/// sorted uniform draws on [0, seconds), which is a Poisson process
/// conditioned on its count. Fixing the count keeps the offered load
/// identical across seeds.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

}  // namespace perfbench
}  // namespace spnet

#endif  // SPNET_PERFBENCH_WORKLOADS_H_
