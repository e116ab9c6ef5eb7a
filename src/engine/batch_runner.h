#ifndef SPNET_ENGINE_BATCH_RUNNER_H_
#define SPNET_ENGINE_BATCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
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
  /// repeated calls on one runner report per-run numbers). When the cache
  /// is shared across runners (serve workers), concurrent activity from
  /// other runners lands in these deltas too — the counters are global to
  /// the cache, not to the caller.
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;
};

struct BatchOptions {
  /// Max entries kept by the runner's LRU cache; 0 disables caching.
  /// Ignored when shared_plan_cache is set.
  size_t plan_cache_capacity = 64;
  /// Lock shards for the runner-owned plan cache (see PlanCache). The
  /// default of 1 preserves exact global LRU order; the serving layer
  /// raises it. Ignored when shared_plan_cache is set.
  size_t plan_cache_shards = 1;
  /// When set, the runner uses this cache instead of creating its own.
  /// This is how serve workers — one BatchRunner per worker thread, since
  /// a runner's algorithm memo is not thread-safe — share one plan cache
  /// so any worker's planning warms every other worker. Its device() must
  /// equal `device` below, or Execute returns InvalidArgument.
  std::shared_ptr<PlanCache> shared_plan_cache;
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

/// Answers `request` from the plan cache alone when it can: the measured-hit
/// path that BatchRunner runs first for every request and that the serve
/// layer runs at admission. `timer` started when the request began
/// executing; `response` gets the request's id and tenant in every case.
/// Returns true when `response` is final, because the request's deadline
/// had expired on arrival (DeadlineExceeded, no lookup counted) or because
/// `cache` holds a measured entry for the request's own algorithm (one hit
/// counted, the response filled from the memoized measurement). Returns
/// false, counting no lookup, when the request still has to plan or
/// simulate. A request whose algorithm cannot be built never has an entry
/// under its name, so fallback is always left to the caller. `cache` must
/// serve `options.device`.
[[nodiscard]] bool AnswerFromCache(const Request& request,
                                   const BatchOptions& options,
                                   uint64_t reorganizer_config_fp,
                                   PlanCache& cache, const Timer& timer,
                                   spgemm::ExecContext* ctx,
                                   Response* response);

/// Executes batches of spGEMM requests concurrently over the global
/// ThreadPool, reusing answers across requests with the same matrix
/// structure through a PlanCache.
///
/// Per request: fingerprint both operands (memoized per distinct matrix),
/// and answer from the cache when AnswerFromCache can. Otherwise plan,
/// simulate on the configured device, and cache the measurement; the plan
/// is freed with the request. A request whose algorithm cannot be built or
/// whose Plan fails is retried with the fallback baseline; a request that
/// exceeds its deadline reports DeadlineExceeded. Both outcomes land in
/// that request's Response::status — Execute itself fails only for
/// malformed input or an unbuildable fallback.
///
/// Observability: Execute records engine.batch.* counters and the plan
/// cache records engine.plan_cache.* counters on the ExecContext's
/// registry (thread-safe). Trace spans cover the batch stages, not
/// individual requests — the TraceRecorder is single-threaded by design,
/// so worker threads do not touch it.
///
/// The runner is reusable: consecutive Execute calls share the plan cache,
/// which is what makes a warm batch fast. Concurrent Execute calls on one
/// runner are not supported (the algorithm memo mutates between batches);
/// concurrent runners may share a cache via BatchOptions::shared_plan_cache.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options);

  /// Executes every request and reports per-request Responses plus
  /// run-level aggregates. The requests' schema_version must be the one
  /// this binary speaks, and the plan cache must serve this runner's
  /// device (InvalidArgument otherwise).
  [[nodiscard]] Result<ExecutionReport> Execute(
      const std::vector<Request>& requests,
      spgemm::ExecContext* ctx = nullptr);

  PlanCache& plan_cache() { return *cache_; }
  /// The runner's cache in shareable form, for wiring additional runners
  /// onto the same cache.
  const std::shared_ptr<PlanCache>& shared_plan_cache() const {
    return cache_;
  }
  const BatchOptions& options() const { return options_; }

 private:
  /// Resolved (and memoized) algorithm instance, or the creation error.
  struct AlgorithmEntry {
    const spgemm::SpGemmAlgorithm* algorithm = nullptr;
    Status status;
  };

  /// Looks up / creates the named algorithm. Serial-phase only.
  const AlgorithmEntry& ResolveAlgorithm(const std::string& name);

  void RunOne(const Request& request, const AlgorithmEntry& primary,
              const AlgorithmEntry& fallback, spgemm::ExecContext* ctx,
              Response* response);

  BatchOptions options_;
  uint64_t reorganizer_config_fp_ = 0;
  std::shared_ptr<PlanCache> cache_;
  /// Memoized algorithm instances, keyed by name. Mutated only between
  /// batches (ResolveAlgorithm runs before the parallel phase), read-only
  /// while workers are in flight.
  std::map<std::string, std::unique_ptr<spgemm::SpGemmAlgorithm>> instances_;
  std::map<std::string, AlgorithmEntry> resolved_;
};

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_BATCH_RUNNER_H_
