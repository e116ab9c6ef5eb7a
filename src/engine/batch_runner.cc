#include "engine/batch_runner.h"

#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "metrics/trace.h"
#include "sparse/fingerprint.h"
#include "spgemm/algorithm_registry.h"

namespace spnet {
namespace engine {

Request RequestFromQuery(const BatchQuery& query) {
  Request request;
  request.id = query.id;
  request.a = query.a;
  request.b = query.b;
  request.algorithm = query.algorithm;
  request.deadline_ms = query.deadline_ms;
  return request;
}

QueryResult QueryResultFromResponse(const Response& response) {
  QueryResult result;
  result.id = response.id;
  result.status = response.status;
  result.algorithm_used = response.algorithm_used;
  result.plan_cache_hit = response.plan_cache_hit;
  result.fallback_used = response.fallback_used;
  result.wall_ms = response.wall_ms;
  result.sim_ms = response.sim_ms;
  result.gflops = response.gflops;
  result.flops = response.flops;
  result.output_nnz = response.output_nnz;
  return result;
}

BatchReport BatchReportFromExecution(const ExecutionReport& report) {
  BatchReport legacy;
  legacy.results.reserve(report.responses.size());
  for (const Response& response : report.responses) {
    legacy.results.push_back(QueryResultFromResponse(response));
  }
  legacy.wall_ms = report.wall_ms;
  legacy.succeeded = report.succeeded;
  legacy.failed = report.failed;
  legacy.fallbacks = report.fallbacks;
  legacy.deadline_expired = report.deadline_expired;
  legacy.plan_cache_hits = report.plan_cache_hits;
  legacy.plan_cache_misses = report.plan_cache_misses;
  legacy.plan_cache_evictions = report.plan_cache_evictions;
  return legacy;
}

BatchRunner::BatchRunner(BatchOptions options)
    : options_(std::move(options)),
      reorganizer_config_fp_(options_.reorganizer_config.Fingerprint()),
      cache_(options_.shared_plan_cache != nullptr
                 ? options_.shared_plan_cache
                 : std::make_shared<PlanCache>(options_.plan_cache_capacity,
                                               options_.plan_cache_shards,
                                               options_.plan_min_confidence,
                                               options_.device)) {
  core::RegisterCoreAlgorithms();
}

const BatchRunner::AlgorithmEntry& BatchRunner::ResolveAlgorithm(
    const std::string& name) {
  auto it = resolved_.find(name);
  if (it != resolved_.end()) return it->second;

  AlgorithmEntry entry;
  // "reorganizer" honors the runner's configured knobs; everything else
  // (baselines and the ablation variants) resolves through the registry
  // with its registered defaults.
  auto created =
      name == "reorganizer"
          ? core::MakeBlockReorganizer(options_.reorganizer_config)
          : spgemm::AlgorithmRegistry::Global().Create(name);
  if (created.ok()) {
    auto owned = std::move(created).value();
    entry.algorithm = owned.get();
    instances_[name] = std::move(owned);
  } else {
    entry.status = created.status();
  }
  return resolved_.emplace(name, std::move(entry)).first->second;
}

void BatchRunner::RunOne(const Request& request, uint64_t fp_a, uint64_t fp_b,
                         const AlgorithmEntry& primary,
                         const AlgorithmEntry& fallback,
                         spgemm::ExecContext* ctx, Response* response) {
  Timer timer;
  response->id = request.id;
  response->tenant = request.tenant;
  // A request-level deadline (>= 0, where 0 is born expired) wins; the
  // negative sentinel inherits the batch default, whose own <= 0 still
  // means "no deadline".
  const bool inherits = request.deadline_ms < 0.0;
  const double deadline_ms =
      inherits ? options_.default_deadline_ms : request.deadline_ms;
  const bool has_deadline = inherits ? deadline_ms > 0.0 : true;
  const auto expired = [&] {
    return has_deadline && timer.Seconds() * 1e3 >= deadline_ms;
  };
  if (expired()) {
    response->status =
        Status::DeadlineExceeded(request.id + " expired on arrival");
    response->wall_ms = timer.Seconds() * 1e3;
    return;
  }

  // Graceful degradation step 1: a request whose algorithm could not be
  // built (unknown name, invalid reorganizer config) runs on the fallback
  // baseline instead of failing.
  const spgemm::SpGemmAlgorithm* algorithm = primary.algorithm;
  std::string name = request.algorithm;
  if (algorithm == nullptr) {
    if (fallback.algorithm == nullptr ||
        request.algorithm == options_.fallback_algorithm) {
      response->status = primary.status;
      response->wall_ms = timer.Seconds() * 1e3;
      return;
    }
    response->fallback_used = true;
    algorithm = fallback.algorithm;
    name = options_.fallback_algorithm;
  }

  PlanKey key;
  CachedPlan cached;
  spgemm::SpGemmPlan planned_here;
  while (true) {
    key = PlanKey{fp_a, fp_b, name,
                  name == "reorganizer" ? reorganizer_config_fp_ : 0};
    cached = cache_->Find(key, ctx);
    if (cached.plan != nullptr) {
      response->plan_cache_hit = true;
      break;
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
      planned_here = std::move(planned).value();
      break;
    }
    // Graceful degradation step 2: a failed Plan retries once on the
    // fallback baseline.
    if (!response->fallback_used && fallback.algorithm != nullptr &&
        name != options_.fallback_algorithm) {
      response->fallback_used = true;
      algorithm = fallback.algorithm;
      name = options_.fallback_algorithm;
      continue;
    }
    response->status = planned.status();
    response->wall_ms = timer.Seconds() * 1e3;
    return;
  }
  response->algorithm_used = name;

  // A hit on a measured entry is done: the memo is the measurement
  // SimulatePlan would return for this (plan, device).
  if (cached.measurement == nullptr) {
    const bool miss = cached.plan == nullptr;
    if (expired()) {
      // The plan this request paid for still warms the cache.
      if (miss) cache_->Insert(key, std::move(planned_here), ctx);
      response->status =
          Status::DeadlineExceeded(request.id + " expired before simulation");
      response->wall_ms = timer.Seconds() * 1e3;
      return;
    }
    auto measured = spgemm::SimulatePlan(miss ? planned_here : *cached.plan,
                                         options_.device, nullptr);
    if (!measured.ok()) {
      response->status = measured.status();
      response->wall_ms = timer.Seconds() * 1e3;
      return;
    }
    if (miss) {
      cached = cache_->Insert(key, std::move(planned_here),
                              std::move(measured).value(), ctx);
    } else {
      cached.measurement = std::make_shared<const spgemm::SpGemmMeasurement>(
          std::move(measured).value());
    }
  }
  const spgemm::SpGemmMeasurement& measurement = *cached.measurement;
  response->sim_ms = measurement.total_seconds * 1e3;
  response->gflops = measurement.Gflops();
  response->flops = measurement.flops;
  response->output_nnz = measurement.output_nnz;
  response->wall_ms = timer.Seconds() * 1e3;
}

Result<ExecutionReport> BatchRunner::Execute(
    const std::vector<Request>& requests, spgemm::ExecContext* ctx) {
  metrics::ScopedSpan batch_span(spgemm::TraceOf(ctx), "engine:batch");
  Timer timer;
  const int64_t hits_before = cache_->hits();
  const int64_t misses_before = cache_->misses();
  const int64_t evictions_before = cache_->evictions();
  const int64_t rejected_before = cache_->rejected_low_confidence();

  if (cache_->device() != options_.device) {
    return Status::InvalidArgument(
        "plan cache serves device '" + cache_->device().name +
        "' but the runner simulates on '" + options_.device.name + "'");
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    SPNET_RETURN_IF_ERROR(
        ValidateSchemaVersion(requests[i].schema_version));
    if (requests[i].a == nullptr) {
      return Status::InvalidArgument("request " + std::to_string(i) + " (" +
                                     requests[i].id + ") has no A matrix");
    }
  }
  const AlgorithmEntry& fallback =
      ResolveAlgorithm(options_.fallback_algorithm);
  if (fallback.algorithm == nullptr) {
    return Status(fallback.status.code(),
                  "fallback algorithm '" + options_.fallback_algorithm +
                      "' cannot be built: " + fallback.status.message());
  }
  // Serial prepass: resolve every distinct algorithm once so the parallel
  // phase only reads the memo maps.
  std::vector<const AlgorithmEntry*> primaries(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    primaries[i] = &ResolveAlgorithm(requests[i].algorithm);
  }

  // Fingerprint each distinct matrix once, in parallel — a manifest that
  // repeats one graph N times hashes it once, not N times.
  std::unordered_map<const sparse::CsrMatrix*, uint64_t> fingerprints;
  for (const Request& r : requests) {
    fingerprints.emplace(r.a.get(), 0);
    if (r.b != nullptr) fingerprints.emplace(r.b.get(), 0);
  }
  std::vector<const sparse::CsrMatrix*> distinct;
  distinct.reserve(fingerprints.size());
  for (const auto& [m, fp] : fingerprints) distinct.push_back(m);
  {
    metrics::ScopedSpan span(spgemm::TraceOf(ctx), "engine:fingerprint");
    SPNET_RETURN_IF_ERROR(ParallelFor(
        0, static_cast<int64_t>(distinct.size()), 1,
        [&](int64_t begin, int64_t end, int) {
          for (int64_t i = begin; i < end; ++i) {
            fingerprints[distinct[static_cast<size_t>(i)]] =
                sparse::StructuralFingerprint(
                    *distinct[static_cast<size_t>(i)]);
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
            const Request& r = requests[idx];
            const sparse::CsrMatrix* b = r.b ? r.b.get() : r.a.get();
            RunOne(r, fingerprints[r.a.get()], fingerprints[b],
                   *primaries[idx], fallback, ctx, &report.responses[idx]);
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
  report.plan_cache_hits = cache_->hits() - hits_before;
  report.plan_cache_misses = cache_->misses() - misses_before;
  report.plan_cache_evictions = cache_->evictions() - evictions_before;
  report.plan_cache_rejected_low_confidence =
      cache_->rejected_low_confidence() - rejected_before;

  spgemm::AddCounter(ctx, "engine.batch.queries",
                     static_cast<int64_t>(requests.size()));
  spgemm::AddCounter(ctx, "engine.batch.succeeded", report.succeeded);
  spgemm::AddCounter(ctx, "engine.batch.failed", report.failed);
  spgemm::AddCounter(ctx, "engine.batch.fallback", report.fallbacks);
  spgemm::AddCounter(ctx, "engine.batch.deadline_expired",
                     report.deadline_expired);
  spgemm::SetGauge(ctx, "engine.batch.wall_ms", report.wall_ms);
  spgemm::SetGauge(ctx, "engine.plan_cache.size",
                   static_cast<double>(cache_->size()));
  return report;
}

Result<BatchReport> BatchRunner::Run(const std::vector<BatchQuery>& queries,
                                     spgemm::ExecContext* ctx) {
  std::vector<Request> requests;
  requests.reserve(queries.size());
  for (const BatchQuery& query : queries) {
    requests.push_back(RequestFromQuery(query));
  }
  SPNET_ASSIGN_OR_RETURN(const ExecutionReport report,
                         Execute(requests, ctx));
  return BatchReportFromExecution(report);
}

}  // namespace engine
}  // namespace spnet
