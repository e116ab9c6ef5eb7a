#ifndef SPNET_COMMON_TIMER_H_
#define SPNET_COMMON_TIMER_H_

#include <chrono>

namespace spnet {

/// Wall-clock stopwatch for the functional (host) side of the pipeline.
/// Simulated GPU time is reported by gpusim in cycles, not by this class.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or last Reset, in seconds.
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace spnet

#endif  // SPNET_COMMON_TIMER_H_
