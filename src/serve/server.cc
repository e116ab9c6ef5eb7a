#include "serve/server.h"

#include <utility>

#include "metrics/json_writer.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace serve {

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      runner_(options_.engine, options_.plan_cache_shards),
      store_(options_.store),
      queue_(options_.queue_capacity),
      other_tenants_("other", options_.default_quota) {}

Server::~Server() { Drain(); }

Status Server::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("Server::Start called twice");
  }
  // Checked before started_ is set, so a server that cannot run admits
  // nothing instead of queueing requests no worker will take.
  SPNET_RETURN_IF_ERROR(runner_.CheckFallback());
  for (const std::string& source : options_.pinned_sources) {
    SPNET_RETURN_IF_ERROR(store_.Pin(source));
  }
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("Server::Start called twice");
  }
  const int count = options_.workers < 1 ? 1 : options_.workers;
  registry_.SetGauge("serve.workers", static_cast<double>(count));
  MutexLock lock(&workers_mu_);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

Server::Tenant& Server::TenantFor(const std::string& name) {
  MutexLock lock(&tenants_mu_);
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return *it->second;
  const auto quota = options_.tenant_quotas.find(name);
  const bool configured = quota != options_.tenant_quotas.end();
  if (!configured) {
    if (unconfigured_tenants_ >= kMaxTrackedTenants) return other_tenants_;
    ++unconfigured_tenants_;
  }
  auto tenant = std::make_unique<Tenant>(
      name, configured ? quota->second : options_.default_quota);
  return *tenants_.emplace(name, std::move(tenant)).first->second;
}

void Server::CountRejection(const std::string& reason,
                            const std::string& tenant) {
  registry_.AddCounter("serve.rejected", 1);
  registry_.AddCounter("serve.rejected." + reason, 1);
  registry_.AddCounter("serve.tenant." +
                           (tenant.empty() ? "unknown"
                                           : TenantFor(tenant).label) +
                           ".rejected",
                       1);
}

Status Server::Submit(engine::Request request, Callback done) {
  if (!started_.load()) {
    return Status::FailedPrecondition("server not started");
  }
  const std::string tenant = request.tenant;
  if (draining_.load()) {
    CountRejection("draining", tenant);
    return Status::FailedPrecondition("server is draining; not admitting");
  }
  Status valid = engine::ValidateSchemaVersion(request.schema_version);
  if (valid.ok() &&
      (request.id.empty() || tenant.empty() || request.a == nullptr)) {
    valid = Status::InvalidArgument(
        "request '" + request.id +
        "' failed admission validation (missing id, tenant or A operand)");
  }
  if (!valid.ok()) {
    CountRejection("invalid", tenant);
    return valid;
  }
  Status injected = verify::MaybeInjectFault(verify::kSiteServeAdmit);
  if (!injected.ok()) {
    CountRejection("injected", tenant);
    return injected;
  }
  Tenant& state = TenantFor(tenant);
  if (!state.bucket.TryAcquire(clock_.Seconds())) {
    CountRejection("quota", tenant);
    return Status::ResourceExhausted("tenant '" + tenant +
                                     "' quota exhausted");
  }
  Job job;
  job.request = std::move(request);
  job.done = std::move(done);
  job.admit_seconds = clock_.Seconds();
  job.tenant = &state;
  in_flight_.fetch_add(1);
  // A measured hit is answered here, on the submitting thread: queueing it
  // would only add a worker's wake-up to a lookup.
  engine::Response answer;
  if (runner_.AnswerFromCache(job.request, Timer(), nullptr, &answer)) {
    registry_.AddCounter("serve.admitted", 1);
    registry_.AddCounter("serve.tenant." + state.label + ".admitted", 1);
    registry_.AddCounter("serve.answered_at_admission", 1);
    Finish(job, answer, job.admit_seconds);
    return Status::Ok();
  }
  const int priority = job.request.priority;
  if (!queue_.TryPush(std::move(job), priority)) {
    in_flight_.fetch_sub(1);
    // The push can lose a race with BeginDrain closing the queue; report
    // that as draining, not as backpressure.
    if (queue_.closed()) {
      CountRejection("draining", tenant);
      return Status::FailedPrecondition("server is draining; not admitting");
    }
    CountRejection("queue_full", tenant);
    return Status::ResourceExhausted(
        "queue full (capacity " + std::to_string(queue_.capacity()) + ")");
  }
  registry_.AddCounter("serve.admitted", 1);
  registry_.AddCounter("serve.tenant." + state.label + ".admitted", 1);
  registry_.SetGauge("serve.queue_depth",
                     static_cast<double>(queue_.size()));
  return Status::Ok();
}

Status Server::SubmitWire(const WireRequest& wire, Callback done) {
  if (draining_.load()) {
    CountRejection("draining", wire.tenant);
    return Status::FailedPrecondition("server is draining; not admitting");
  }
  auto matrix = store_.Get(wire.source);
  if (!matrix.ok()) {
    CountRejection("source", wire.tenant);
    return matrix.status();
  }
  auto built = engine::RequestBuilder()
                   .Id(wire.id)
                   .Tenant(wire.tenant)
                   .Priority(wire.priority)
                   .DeadlineMs(wire.deadline_ms)
                   .Algorithm(wire.algorithm)
                   .OperandA(std::move(matrix).value())
                   .Build();
  if (!built.ok()) {
    CountRejection("invalid", wire.tenant);
    return built.status();
  }
  return Submit(std::move(built).value(), std::move(done));
}

void Server::WorkerLoop() {
  Job job;
  while (queue_.Pop(&job)) {
    registry_.SetGauge("serve.queue_depth",
                       static_cast<double>(queue_.size()));
    const double popped_s = clock_.Seconds();
    // Workers pass a null ExecContext: its TraceRecorder is
    // single-threaded, and the serve metrics live in registry_.
    Finish(job, runner_.Run(job.request, nullptr), popped_s);
    job = Job();  // release the callback/matrix before blocking in Pop
  }
}

void Server::Finish(const Job& job, const engine::Response& response,
                    double start_s) {
  const double done_s = clock_.Seconds();
  registry_.ObserveHistogram(
      "serve.queue_us",
      static_cast<int64_t>((start_s - job.admit_seconds) * 1e6));
  registry_.ObserveHistogram("serve.exec_us",
                             static_cast<int64_t>((done_s - start_s) * 1e6));
  registry_.ObserveHistogram(
      "serve.latency_us",
      static_cast<int64_t>((done_s - job.admit_seconds) * 1e6));
  const bool ok = response.status.ok();
  registry_.AddCounter(ok ? "serve.completed" : "serve.failed", 1);
  registry_.AddCounter("serve.tenant." + job.tenant->label +
                           (ok ? ".completed" : ".failed"),
                       1);
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    registry_.AddCounter("serve.deadline_expired", 1);
  }
  if (response.plan_cache_hit) {
    registry_.AddCounter("serve.plan_cache_hit", 1);
  }
  if (job.done) job.done(response);
  in_flight_.fetch_sub(1);
}

void Server::BeginDrain() {
  draining_.store(true);
  queue_.Close();
}

void Server::Drain() {
  BeginDrain();
  MutexLock lock(&workers_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::string Server::StatsJson() {
  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Int(1);
  w.Key("draining").Bool(draining_.load());
  w.Key("in_flight").Int(in_flight_.load());
  w.Key("metrics");
  registry_.AppendJson(&w);
  w.Key("latency_percentiles").BeginObject();
  for (const char* name : {"serve.queue_us", "serve.exec_us",
                           "serve.latency_us"}) {
    // FindHistogram, not GetHistogram: a stats read must not materialize
    // empty instruments. A histogram that exists but has no observations
    // yet reports null percentiles — a 0.0 here would read as "everything
    // completed instantly" to a dashboard.
    const metrics::Histogram* h = registry_.FindHistogram(name);
    if (h == nullptr) continue;
    const int64_t count = h->count();
    w.Key(name).BeginObject();
    w.Key("count").Int(count);
    if (count == 0) {
      w.Key("p50").Null();
      w.Key("p99").Null();
      w.Key("p999").Null();
    } else {
      w.Key("p50").Double(h->Percentile(0.50));
      w.Key("p99").Double(h->Percentile(0.99));
      w.Key("p999").Double(h->Percentile(0.999));
    }
    w.EndObject();
  }
  w.EndObject();
  w.Key("plan_cache").BeginObject();
  w.Key("capacity").Int(static_cast<int64_t>(plan_cache().capacity()));
  w.Key("shards").Int(static_cast<int64_t>(plan_cache().shards()));
  w.Key("size").Int(static_cast<int64_t>(plan_cache().size()));
  w.Key("hits").Int(plan_cache().hits());
  w.Key("misses").Int(plan_cache().misses());
  w.Key("evictions").Int(plan_cache().evictions());
  w.EndObject();
  w.Key("matrix_store").BeginObject();
  w.Key("resident").Int(static_cast<int64_t>(store_.size()));
  w.Key("pinned").Int(static_cast<int64_t>(store_.pinned()));
  w.Key("evictions").Int(store_.evictions());
  w.EndObject();
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace spnet
