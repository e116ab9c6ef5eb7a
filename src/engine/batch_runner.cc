#include "engine/batch_runner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "metrics/trace.h"
#include "sparse/fingerprint.h"
#include "spgemm/algorithm_registry.h"

namespace spnet {
namespace engine {

BatchRunner::BatchRunner(BatchOptions options, size_t plan_cache_shards)
    : options_(std::move(options)),
      reorganizer_config_fp_(options_.reorganizer_config.Fingerprint()),
      cache_(options_.plan_cache_capacity, plan_cache_shards) {
  core::RegisterCoreAlgorithms();
}

const BatchRunner::AlgorithmEntry& BatchRunner::ResolveAlgorithm(
    const std::string& name) {
  MutexLock lock(&mu_);
  auto it = algorithms_.find(name);
  if (it != algorithms_.end()) return it->second;

  AlgorithmEntry entry;
  // "reorganizer" honors the runner's configured knobs; everything else
  // (baselines and the ablation variants) resolves through the registry
  // with its registered defaults.
  auto created =
      name == "reorganizer"
          ? core::MakeBlockReorganizer(options_.reorganizer_config)
          : spgemm::AlgorithmRegistry::Global().Create(name);
  if (created.ok()) {
    entry.algorithm = std::move(created).value();
  } else {
    entry.status = created.status();
  }
  return algorithms_.emplace(name, std::move(entry)).first->second;
}

Status BatchRunner::CheckFallback() {
  const AlgorithmEntry& fallback =
      ResolveAlgorithm(options_.fallback_algorithm);
  if (fallback.algorithm != nullptr) return Status::Ok();
  return Status(fallback.status.code(),
                "fallback algorithm '" + options_.fallback_algorithm +
                    "' cannot be built: " + fallback.status.message());
}

namespace {

/// What Execute requires of every request before it runs any: this
/// binary's schema version and an A operand.
Status CheckRequest(const Request& request) {
  SPNET_RETURN_IF_ERROR(ValidateSchemaVersion(request.schema_version));
  if (request.a == nullptr) {
    return Status::InvalidArgument("request '" + request.id +
                                   "' has no A matrix");
  }
  return Status::Ok();
}

/// True once `request` has used up its deadline on `timer`. A
/// request-level deadline (>= 0, where 0 is born expired) wins; the
/// negative sentinel inherits `default_deadline_ms`, whose own <= 0 still
/// means "no deadline".
bool Expired(const Request& request, double default_deadline_ms,
             const Timer& timer) {
  const bool inherits = request.deadline_ms < 0.0;
  const double deadline_ms =
      inherits ? default_deadline_ms : request.deadline_ms;
  if (inherits && deadline_ms <= 0.0) return false;
  return timer.Seconds() * 1e3 >= deadline_ms;
}

/// The cache key of `request` planned with the algorithm `name`.
PlanKey KeyFor(const Request& request, const std::string& name,
               uint64_t reorganizer_config_fp) {
  return PlanKey{sparse::StructuralFingerprint(*request.a),
                 sparse::StructuralFingerprint(request.b ? *request.b
                                                         : *request.a),
                 name, name == "reorganizer" ? reorganizer_config_fp : 0};
}

/// Copies what a caller sees of `measurement` into `response` and stamps
/// its wall time.
void FillMeasured(const spgemm::SpGemmMeasurement& measurement,
                  const Timer& timer, Response* response) {
  response->sim_ms = measurement.total_seconds * 1e3;
  response->gflops = measurement.Gflops();
  response->flops = measurement.flops;
  response->output_nnz = measurement.output_nnz;
  response->wall_ms = timer.Seconds() * 1e3;
}

}  // namespace

bool BatchRunner::AnswerFromCache(const Request& request, const Timer& timer,
                                  spgemm::ExecContext* ctx,
                                  Response* response) {
  response->id = request.id;
  response->tenant = request.tenant;
  if (Expired(request, options_.default_deadline_ms, timer)) {
    response->status =
        Status::DeadlineExceeded(request.id + " expired on arrival");
    response->wall_ms = timer.Seconds() * 1e3;
    return true;
  }
  // A hit on a measured entry is done: the memo is the measurement
  // SimulatePlan would return for this (plan, device).
  const auto measurement = cache_.FindMeasured(
      KeyFor(request, request.algorithm, reorganizer_config_fp_), ctx);
  if (measurement == nullptr) return false;
  response->plan_cache_hit = true;
  response->algorithm_used = request.algorithm;
  FillMeasured(*measurement, timer, response);
  return true;
}

Response BatchRunner::Run(const Request& request, spgemm::ExecContext* ctx) {
  Response response;
  // A request runs every nested ParallelFor (classification, the workload
  // build) inline on the thread that executes it. Execute already spreads
  // a batch over the pool, and a direct call, such as a serve worker's,
  // must not fan its planning out to the shared pool: that pool runs one
  // top-level job at a time, so the other workers' planning would queue
  // behind it. A one-chunk ParallelFor marks this thread as in-chunk for
  // the call.
  SPNET_CHECK_OK(ParallelFor(0, 1, 1, [&](int64_t, int64_t, int) {
    RunInline(request, ctx, &response);
    return Status::Ok();
  }));
  return response;
}

void BatchRunner::RunInline(const Request& request, spgemm::ExecContext* ctx,
                            Response* response) {
  Timer timer;
  response->id = request.id;
  response->tenant = request.tenant;
  const Status valid = CheckRequest(request);
  if (!valid.ok()) {
    response->status = valid;
    return;
  }
  if (AnswerFromCache(request, timer, ctx, response)) return;
  const auto expired = [&] {
    return Expired(request, options_.default_deadline_ms, timer);
  };

  // Graceful degradation step 1: a request whose algorithm could not be
  // built (unknown name, invalid reorganizer config) runs on the fallback
  // baseline instead of failing.
  const AlgorithmEntry& primary = ResolveAlgorithm(request.algorithm);
  const AlgorithmEntry& fallback =
      ResolveAlgorithm(options_.fallback_algorithm);
  const spgemm::SpGemmAlgorithm* algorithm = primary.algorithm.get();
  std::string name = request.algorithm;
  if (algorithm == nullptr) {
    if (fallback.algorithm == nullptr ||
        request.algorithm == options_.fallback_algorithm) {
      response->status = primary.status;
      response->wall_ms = timer.Seconds() * 1e3;
      return;
    }
    response->fallback_used = true;
    algorithm = fallback.algorithm.get();
    name = options_.fallback_algorithm;
  }

  PlanKey key;
  spgemm::SpGemmPlan plan;
  while (true) {
    key = KeyFor(request, name, reorganizer_config_fp_);
    // A measurement that appeared since AnswerFromCache looked, or one
    // under the fallback's name, is the answer. Anything else plans.
    const auto measurement = cache_.Find(key, ctx);
    if (measurement != nullptr) {
      response->plan_cache_hit = true;
      response->algorithm_used = name;
      FillMeasured(*measurement, timer, response);
      return;
    }
    if (expired()) {
      response->status =
          Status::DeadlineExceeded(request.id + " expired before planning");
      response->wall_ms = timer.Seconds() * 1e3;
      return;
    }
    // Worker threads pass a null context into Plan: the ExecContext's
    // TraceRecorder and pool-stats scope are single-threaded, and the
    // engine.* counters above already cover the batch path.
    auto planned =
        algorithm->Plan(*request.a, request.b ? *request.b : *request.a,
                        options_.device, nullptr);
    if (planned.ok()) {
      plan = std::move(planned).value();
      break;
    }
    // Graceful degradation step 2: a failed Plan retries once on the
    // fallback baseline.
    if (!response->fallback_used && fallback.algorithm != nullptr &&
        name != options_.fallback_algorithm) {
      response->fallback_used = true;
      algorithm = fallback.algorithm.get();
      name = options_.fallback_algorithm;
      continue;
    }
    response->status = planned.status();
    response->wall_ms = timer.Seconds() * 1e3;
    return;
  }
  response->algorithm_used = name;

  // The cache keeps only the measurement; the plan dies with this request,
  // so one that expires here leaves nothing behind.
  if (expired()) {
    response->status =
        Status::DeadlineExceeded(request.id + " expired before simulation");
    response->wall_ms = timer.Seconds() * 1e3;
    return;
  }
  auto measured = spgemm::SimulatePlan(plan, options_.device, nullptr);
  if (!measured.ok()) {
    response->status = measured.status();
    response->wall_ms = timer.Seconds() * 1e3;
    return;
  }
  FillMeasured(*measured, timer, response);
  cache_.Insert(key, std::move(measured).value(), ctx);
}

Result<ExecutionReport> BatchRunner::Execute(
    const std::vector<Request>& requests, spgemm::ExecContext* ctx) {
  metrics::ScopedSpan batch_span(spgemm::TraceOf(ctx), "engine:batch");
  Timer timer;
  const int64_t hits_before = cache_.hits();
  const int64_t misses_before = cache_.misses();
  const int64_t evictions_before = cache_.evictions();

  for (const Request& request : requests) {
    SPNET_RETURN_IF_ERROR(CheckRequest(request));
  }
  SPNET_RETURN_IF_ERROR(CheckFallback());

  // Fingerprint each distinct matrix once, in parallel — a manifest that
  // repeats one graph N times hashes it once, not N times. The value is
  // cached on the matrix, so the run loop below reads it back for free.
  std::vector<const sparse::CsrMatrix*> distinct;
  distinct.reserve(2 * requests.size());
  for (const Request& r : requests) {
    distinct.push_back(r.a.get());
    if (r.b != nullptr) distinct.push_back(r.b.get());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "engine:fingerprint");
    SPNET_RETURN_IF_ERROR(ParallelFor(
        0, static_cast<int64_t>(distinct.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            sparse::StructuralFingerprint(*distinct[static_cast<size_t>(i)]);
          }
          return Status::Ok();
        }));
  }

  ExecutionReport report;
  report.responses.resize(requests.size());
  {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "engine:run");
    SPNET_RETURN_IF_ERROR(ParallelFor(
        0, static_cast<int64_t>(requests.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            const auto idx = static_cast<size_t>(i);
            report.responses[idx] = Run(requests[idx], ctx);
          }
          return Status::Ok();
        }));
  }

  for (const Response& r : report.responses) {
    if (r.status.ok()) {
      ++report.succeeded;
    } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
      ++report.deadline_expired;
    } else {
      ++report.failed;
    }
    if (r.fallback_used) ++report.fallbacks;
  }
  report.wall_ms = timer.Seconds() * 1e3;
  report.plan_cache_hits = cache_.hits() - hits_before;
  report.plan_cache_misses = cache_.misses() - misses_before;
  report.plan_cache_evictions = cache_.evictions() - evictions_before;

  spgemm::AddCounter(ctx, "engine.batch.queries",
                     static_cast<int64_t>(requests.size()));
  spgemm::AddCounter(ctx, "engine.batch.succeeded", report.succeeded);
  spgemm::AddCounter(ctx, "engine.batch.failed", report.failed);
  spgemm::AddCounter(ctx, "engine.batch.fallback", report.fallbacks);
  spgemm::AddCounter(ctx, "engine.batch.deadline_expired",
                     report.deadline_expired);
  spgemm::SetGauge(ctx, "engine.batch.wall_ms", report.wall_ms);
  spgemm::SetGauge(ctx, "engine.plan_cache.size",
                   static_cast<double>(cache_.size()));
  return report;
}

}  // namespace engine
}  // namespace spnet
