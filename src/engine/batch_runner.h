#ifndef SPNET_ENGINE_BATCH_RUNNER_H_
#define SPNET_ENGINE_BATCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "core/reorganizer_config.h"
#include "engine/plan_cache.h"
#include "engine/request.h"
#include "gpusim/device_spec.h"
#include "sparse/csr_matrix.h"
#include "spgemm/algorithm.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace engine {

/// Everything one Execute call produced, plus the run-level aggregates the
/// CLI summary line, the serve metrics, and the bench tables print.
struct ExecutionReport {
  std::vector<Response> responses;
  double wall_ms = 0.0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t fallbacks = 0;
  int64_t deadline_expired = 0;
  /// Plan-cache activity attributable to this Execute call (deltas, so
  /// repeated calls on one runner report per-run numbers). Run calls that
  /// other threads make on the same runner meanwhile land in these deltas
  /// too: the counters belong to the cache, not to the caller.
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;
};

struct BatchOptions {
  /// Max entries kept by the runner's LRU cache; 0 disables caching.
  size_t plan_cache_capacity = 64;
  /// Algorithm used when a query's own algorithm cannot be built or its
  /// Plan fails (graceful degradation). Must name a registry baseline.
  std::string fallback_algorithm = "outer-product";
  /// Knobs for queries naming "reorganizer". Invalid knobs degrade those
  /// queries to the fallback instead of failing the batch.
  core::ReorganizerConfig reorganizer_config;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  /// Deadline applied to queries that do not set their own; <= 0 = none.
  double default_deadline_ms = 0.0;
};

/// Executes spGEMM requests, reusing answers across requests with the
/// same matrix structure through the PlanCache it owns.
///
/// Per request (Run): answer from the cache when AnswerFromCache can.
/// Otherwise plan, simulate on the configured device, and cache the
/// measurement; the plan is freed with the request. A request whose
/// algorithm cannot be built or whose Plan fails is retried with the
/// fallback baseline; a request that exceeds its deadline reports
/// DeadlineExceeded. Both outcomes land in that request's
/// Response::status.
///
/// Every member is safe to call from many threads at once: the cache is
/// thread-safe and the algorithm memo is locked. The serve layer's
/// workers share one runner this way; Execute spreads a batch over the
/// global ThreadPool the same way.
///
/// Observability: Execute records engine.batch.* counters and the plan
/// cache records engine.plan_cache.* counters on the ExecContext's
/// registry (thread-safe). Trace spans cover the batch stages, not
/// individual requests — the TraceRecorder is single-threaded by design,
/// so Run never touches it.
class BatchRunner {
 public:
  /// `plan_cache_shards` splits the cache into independently locked LRU
  /// shards (see PlanCache); 1 keeps exact global LRU order.
  explicit BatchRunner(BatchOptions options, size_t plan_cache_shards = 1);

  /// Executes every request and reports per-request Responses plus
  /// run-level aggregates. Fails, running nothing, when a request has
  /// another schema_version or no A operand (InvalidArgument) or when the
  /// fallback cannot be built.
  /// Consecutive calls share the plan cache, which is what makes a warm
  /// batch fast.
  [[nodiscard]] Result<ExecutionReport> Execute(
      const std::vector<Request>& requests,
      spgemm::ExecContext* ctx = nullptr);

  /// Executes one request on the calling thread. A malformed request and
  /// an unbuildable fallback fail only this request's Response.
  Response Run(const Request& request, spgemm::ExecContext* ctx = nullptr);

  /// Answers `request` from the plan cache alone when it can: the path Run
  /// takes first and the serve layer takes at admission. `timer` started
  /// when the request began executing; `response` gets the request's id
  /// and tenant in every case. Returns true when `response` is final,
  /// because the request's deadline had expired on arrival
  /// (DeadlineExceeded, no lookup counted) or because the cache holds a
  /// measured entry for the request's own algorithm (one hit counted, the
  /// response filled from the memoized measurement). Returns false,
  /// counting no lookup, when the request still has to plan or simulate.
  /// A request whose algorithm cannot be built never has an entry under
  /// its name, so fallback is always left to Run.
  [[nodiscard]] bool AnswerFromCache(const Request& request,
                                     const Timer& timer,
                                     spgemm::ExecContext* ctx,
                                     Response* response);

  /// OK when the fallback algorithm can be built; otherwise the error
  /// Execute fails with.
  [[nodiscard]] Status CheckFallback();

  PlanCache& plan_cache() { return cache_; }

 private:
  /// A created algorithm, or the error its creation returned.
  struct AlgorithmEntry {
    std::unique_ptr<spgemm::SpGemmAlgorithm> algorithm;
    Status status;
  };

  /// The memoized entry for `name`, created on first use. Entries are
  /// never changed or erased, and std::map nodes do not move, so the
  /// reference stays valid after the lock is released.
  const AlgorithmEntry& ResolveAlgorithm(const std::string& name)
      EXCLUDES(mu_);

  /// Run's body; Run supplies the in-chunk marking.
  void RunInline(const Request& request, spgemm::ExecContext* ctx,
                 Response* response);

  const BatchOptions options_;
  const uint64_t reorganizer_config_fp_;
  PlanCache cache_;
  Mutex mu_;
  std::map<std::string, AlgorithmEntry> algorithms_ GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_BATCH_RUNNER_H_
