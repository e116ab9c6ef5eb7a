#ifndef SPNET_ENGINE_BATCH_RUNNER_H_
#define SPNET_ENGINE_BATCH_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/deprecation.h"
#include "common/status.h"
#include "core/reorganizer_config.h"
#include "engine/plan_cache.h"
#include "engine/request.h"
#include "gpusim/device_spec.h"
#include "sparse/csr_matrix.h"
#include "spgemm/algorithm.h"
#include "spgemm/exec_context.h"

namespace spnet {
namespace engine {

/// Legacy form of one query of a batch (see engine::Request for the
/// current request currency, which adds tenant/priority/schema fields).
/// Kept as a thin adapter so pre-Request callers keep compiling; new code
/// should build engine::Request via RequestBuilder instead. The
/// legacy-batch-query lint rule flags direct construction outside
/// src/engine.
struct BatchQuery {
  std::string id;
  std::shared_ptr<const sparse::CsrMatrix> a;
  /// Null selects A as the second operand (C = A^2, the paper's workload).
  std::shared_ptr<const sparse::CsrMatrix> b;
  std::string algorithm = "reorganizer";
  /// Sentinel for deadline_ms: inherit BatchOptions::default_deadline_ms.
  static constexpr double kInheritDeadline = -1.0;
  /// Wall-clock budget for this query in ms. Negative (the default)
  /// inherits the batch-level default; 0 is an already-expired deadline
  /// (the query reports DeadlineExceeded without doing work); positive is
  /// the budget. A zero budget used to mean "inherit", which made an
  /// expired deadline impossible to express per query.
  double deadline_ms = kInheritDeadline;
};

/// Legacy outcome of one query; engine::Response is the current form
/// (same measurement fields plus tenant identity).
struct QueryResult {
  std::string id;
  Status status;
  /// Algorithm that actually produced the measurement (the fallback's name
  /// when degradation kicked in).
  std::string algorithm_used;
  bool plan_cache_hit = false;
  bool fallback_used = false;
  /// Host wall-clock spent on this query (fingerprint + plan + simulate).
  double wall_ms = 0.0;
  /// Simulated end-to-end seconds on the device, as milliseconds.
  double sim_ms = 0.0;
  double gflops = 0.0;
  int64_t flops = 0;
  int64_t output_nnz = 0;
};

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
  /// Plans refused by the cache's confidence-admission floor this run.
  int64_t plan_cache_rejected_low_confidence = 0;
};

/// Legacy report shape returned by Run; ExecutionReport is the current
/// form.
struct BatchReport {
  std::vector<QueryResult> results;
  double wall_ms = 0.0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t fallbacks = 0;
  int64_t deadline_expired = 0;
  /// Plan-cache activity attributable to this Run call (deltas, so
  /// repeated Run calls on one runner report per-run numbers).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;
};

struct BatchOptions {
  /// Max plans kept by the runner's LRU cache; 0 disables plan caching.
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
  /// Admission floor for the runner-owned plan cache: plans whose
  /// confidence (SpGemmPlan::confidence, < 1.0 only for the estimated
  /// planning tier) falls below this are served but never cached. Ignored
  /// when shared_plan_cache is set (the shared cache carries its own
  /// floor).
  double plan_min_confidence = 0.25;
  /// Knobs for queries naming "reorganizer". Invalid knobs degrade those
  /// queries to the fallback instead of failing the batch.
  core::ReorganizerConfig reorganizer_config;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp();
  /// Deadline applied to queries that do not set their own; <= 0 = none.
  double default_deadline_ms = 0.0;
};

/// Executes batches of spGEMM requests concurrently over the global
/// ThreadPool, reusing plans across requests with the same matrix
/// structure through a PlanCache.
///
/// Per request: fingerprint both operands (memoized per distinct matrix),
/// look the plan up in the cache, and return the entry's memoized
/// measurement on a hit. On a miss, plan, simulate on the configured
/// device, and cache the plan together with its measurement. A request
/// whose algorithm cannot be built or whose Plan fails is retried with
/// the fallback baseline; a request that
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

  /// Legacy entry point: adapts BatchQuery to Request, Executes, and
  /// converts back.
  SPNET_DEPRECATED("use BatchRunner::Execute with engine::Request")
  [[nodiscard]] Result<BatchReport> Run(const std::vector<BatchQuery>& queries,
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

  void RunOne(const Request& request, uint64_t fp_a, uint64_t fp_b,
              const AlgorithmEntry& primary, const AlgorithmEntry& fallback,
              spgemm::ExecContext* ctx, Response* response);

  BatchOptions options_;
  uint64_t reorganizer_config_fp_ = 0;
  std::shared_ptr<PlanCache> cache_;
  /// Memoized algorithm instances, keyed by name. Mutated only between
  /// batches (ResolveAlgorithm runs before the parallel phase), read-only
  /// while workers are in flight.
  std::map<std::string, std::unique_ptr<spgemm::SpGemmAlgorithm>> instances_;
  std::map<std::string, AlgorithmEntry> resolved_;
};

/// Adapters bridging the legacy BatchQuery surface onto the Request API.
/// They live here (not request.h) so only legacy-aware code pulls in the
/// legacy types.
Request RequestFromQuery(const BatchQuery& query);
QueryResult QueryResultFromResponse(const Response& response);
BatchReport BatchReportFromExecution(const ExecutionReport& report);

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_BATCH_RUNNER_H_
