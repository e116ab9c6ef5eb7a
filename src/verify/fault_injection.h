#ifndef SPNET_VERIFY_FAULT_INJECTION_H_
#define SPNET_VERIFY_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace spnet {
namespace verify {

/// Canonical fault-site names. Production code passes these to
/// MaybeInjectFault(); tests and the CLI arm them by the same spelling.
/// Keep the list in sync with DESIGN.md §verify.
inline constexpr char kSiteLoaderRead[] = "sparse.loader.read";
inline constexpr char kSitePlan[] = "spgemm.plan";
inline constexpr char kSiteCompute[] = "spgemm.compute";
/// spgemm::SimulatePlan, the one path from a plan to a measurement.
inline constexpr char kSiteSimulate[] = "spgemm.simulate";
inline constexpr char kSiteChatAlloc[] = "core.chat.alloc";
/// serve::Server admission control: an armed site rejects the request
/// before quota/queue checks, exercising the rejection path
/// deterministically.
inline constexpr char kSiteServeAdmit[] = "serve.admit";

/// Process-wide deterministic fault injector.
///
/// Production code compiles in named check points (`MaybeInjectFault(site)`)
/// at its fallible boundaries: loader reads, plan construction,
/// simulation, and the big intermediate-buffer allocations. Disarmed — the
/// default — a check point costs one relaxed atomic load and nothing else;
/// call counts are not even tracked. Armed, every check point counts its
/// calls (1-based) and the armed site fails deterministically inside its
/// configured call window, so tests exercise failure paths (BatchRunner
/// fallback, Status propagation, partial-load cleanup) without mocks and
/// without randomness.
///
/// Arming is either programmatic (`Arm`) or declarative through the
/// `SPNET_FAULT_INJECT` environment variable, parsed on first use:
///
///   SPNET_FAULT_INJECT="spgemm.plan=2"          fail the 2nd Plan call
///   SPNET_FAULT_INJECT="spgemm.plan=1:0"        fail every Plan call
///   SPNET_FAULT_INJECT="sparse.loader.read=3:2" fail the 3rd and 4th read
///   SPNET_FAULT_INJECT="core.chat.alloc=1:1:io" fail once with kIoError
///
/// Spec grammar: comma-separated `site=first[:count[:code]]` where `first`
/// is the 1-based call ordinal, `count` is the number of consecutive
/// failing calls (0 = every call from `first` on; default 1) and `code`
/// is one of internal|io|invalid|unavailable-ish spellings (default
/// internal). Injected statuses carry the message
/// "injected fault at <site> (call N)" so they are recognizable in logs.
///
/// Thread-safe; the failure window is per-site, counted across threads.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms `site` to fail calls [first, first+count) (1-based ordinals);
  /// count == 0 means every call from `first` on. Re-arming a site
  /// replaces its window and resets its call count.
  void Arm(const std::string& site, int64_t first, int64_t count = 1,
           StatusCode code = StatusCode::kInternal);

  /// Parses the `site=first[:count[:code]]` spec grammar (see class
  /// comment) and arms every entry. InvalidArgument on malformed specs.
  [[nodiscard]] Status ArmFromSpec(const std::string& spec);

  /// Disarms every site and zeroes all call counts.
  void Reset();

  /// Calls observed at `site` since the last Reset/Arm of that site.
  /// Counting only happens while at least one site is armed.
  int64_t CallCount(const std::string& site) const;

  /// True if any site is currently armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The check point: OK unless `site` is armed and this call falls in
  /// its failure window.
  [[nodiscard]] Status Check(const char* site);

 private:
  struct Site {
    int64_t calls = 0;   ///< observed calls (1-based ordinals)
    int64_t first = 0;   ///< 0 = not armed, counting only
    int64_t count = 1;   ///< 0 = unbounded
    StatusCode code = StatusCode::kInternal;
  };

  FaultInjector();

  /// Fast-path flag mirroring "sites_ has at least one armed entry";
  /// relaxed loads are fine because Check() re-validates under mu_.
  std::atomic<bool> armed_{false};
  mutable Mutex mu_;
  std::map<std::string, Site> sites_ GUARDED_BY(mu_);
};

/// The instrumentation entry point used by production code. Disarmed cost:
/// one relaxed atomic load.
[[nodiscard]] inline Status MaybeInjectFault(const char* site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.armed()) return Status::Ok();
  return injector.Check(site);
}

}  // namespace verify
}  // namespace spnet

#endif  // SPNET_VERIFY_FAULT_INJECTION_H_
