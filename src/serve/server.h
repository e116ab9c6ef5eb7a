#ifndef SPNET_SERVE_SERVER_H_
#define SPNET_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "common/token_bucket.h"
#include "engine/batch_runner.h"
#include "engine/request.h"
#include "metrics/registry.h"
#include "serve/matrix_store.h"
#include "serve/wire.h"

namespace spnet {
namespace serve {

/// Per-tenant admission rate: a token bucket of `capacity` burst refilled
/// at `refill_per_sec`. capacity <= 0 means unlimited (no quota).
struct TenantQuota {
  double capacity = 0.0;
  double refill_per_sec = 0.0;
};

/// Distinct tenants, beyond those named in ServeOptions::tenant_quotas,
/// that get their own token bucket and serve.tenant.<tenant>.* counters.
/// Tenant names come from clients, so the state they key must stay
/// bounded: later unconfigured tenants share one bucket under
/// default_quota and one serve.tenant.other.* series.
inline constexpr size_t kMaxTrackedTenants = 64;

struct ServeOptions {
  /// Worker threads executing requests. They all call the server's one
  /// BatchRunner, so any worker's planning warms every other worker.
  int workers = 2;
  /// Admission-control bound: requests beyond this many queued are
  /// rejected with kResourceExhausted instead of queued.
  size_t queue_capacity = 64;
  /// Quota for tenants without an explicit entry. Default: unlimited.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Engine knobs (fallback algorithm, device, default deadline, plan
  /// cache capacity). An unbuildable fallback fails Start().
  engine::BatchOptions engine;
  /// Lock shards of the runner's plan cache. Serving traffic hits the
  /// cache from every worker at once, so the default trades exact global
  /// LRU for 8-way reduced contention.
  size_t plan_cache_shards = 8;
  /// Matrix resolution (dataset scale/seed/cache + resident LRU bound).
  MatrixStore::Options store;
  /// Sources preloaded and pinned at Start(); a load failure fails
  /// Start() rather than the first unlucky request.
  std::vector<std::string> pinned_sources;
};

/// Multi-tenant serving front end over engine::BatchRunner.
///
/// Life cycle: construct → Start() → Submit()/SubmitWire() from any
/// thread → BeginDrain() (stop admitting) → Drain() (finish queued and
/// in-flight work, stop workers). The destructor drains if the caller did
/// not.
///
/// Admission control, in order, for every Submit:
///   1. draining             → kFailedPrecondition  (serve.rejected.draining)
///   2. malformed request    → kInvalidArgument     (serve.rejected.invalid)
///   3. serve.admit fault    → injected code        (serve.rejected.injected)
///   4. tenant token bucket  → kResourceExhausted   (serve.rejected.quota;
///                             tenants past kMaxTrackedTenants share one)
///   5. bounded queue full   → kResourceExhausted   (serve.rejected.queue_full;
///                             only requests not answered at admission)
/// A rejected Submit returns the error and never invokes the callback —
/// transports turn the status into an error response line themselves.
///
/// An admitted request whose plan cache entry is already measured (see
/// engine::BatchRunner::AnswerFromCache) is answered before Submit returns: its
/// callback runs on the submitting thread, and it waits behind no queued
/// work of any priority. Every other admitted request is queued with its
/// Request::priority (higher drains first, FIFO within a class) and
/// executed by a worker, which then invokes the callback on the worker
/// thread. Callbacks must be thread-safe and cheap, and a caller must not
/// hold, while it calls Submit, a lock its callback takes; the daemon's
/// callback writes one response line under an output mutex that its read
/// loop never holds.
///
/// Observability: serve.* counters (admitted/completed/failed plus the
/// per-reason rejections above, serve.answered_at_admission, and
/// per-tenant mirrors under
/// serve.tenant.<tenant>.*, or serve.tenant.other.* past
/// kMaxTrackedTenants), serve.queue_depth gauge, and log2 histograms
/// serve.queue_us / serve.exec_us / serve.latency_us (admission to
/// callback; an answer at admission waits 0 in the queue). StatsJson() snapshots everything plus
/// p50/p99/p999 latency percentiles and plan-cache / matrix-store state.
class Server {
 public:
  using Callback = std::function<void(const engine::Response&)>;

  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Checks that the engine's fallback algorithm can be built, pins hot
  /// sources and starts the worker threads. Call exactly once.
  [[nodiscard]] Status Start();

  /// Admission control, then an answer at admission or an enqueue (see
  /// class comment). The request must
  /// have been built by RequestBuilder (Submit re-validates the
  /// invariants it can check cheaply).
  [[nodiscard]] Status Submit(engine::Request request, Callback done);

  /// Resolves `wire.source` through the MatrixStore, builds the Request,
  /// and Submits it.
  [[nodiscard]] Status SubmitWire(const WireRequest& wire, Callback done);

  /// Stops admitting (Submit fails with kFailedPrecondition) and closes
  /// the queue. Queued and in-flight requests still complete. Idempotent.
  void BeginDrain();

  /// BeginDrain() + wait for every queued and in-flight request to finish
  /// and the workers to exit. Idempotent; safe from any non-worker
  /// thread.
  void Drain();

  bool draining() const { return draining_.load(); }

  /// Requests currently queued (excludes in-flight).
  size_t queue_depth() const { return queue_.size(); }
  /// Requests admitted but not yet completed (queued + executing).
  int64_t in_flight() const { return in_flight_.load(); }

  MatrixStore& matrix_store() { return store_; }
  engine::PlanCache& plan_cache() { return runner_.plan_cache(); }
  metrics::Registry& registry() { return registry_; }
  const ServeOptions& options() const { return options_; }

  /// One JSON document with the registry dump, latency percentiles
  /// (p50/p99/p999 of serve.latency_us and serve.exec_us), and
  /// plan-cache / matrix-store summaries. This is what the daemon flushes
  /// on drain.
  std::string StatsJson();

 private:
  /// Admission state shared by every request of one tenant (or, past
  /// kMaxTrackedTenants, of every overflow tenant).
  struct Tenant {
    Tenant(std::string metric_label, const TenantQuota& quota)
        : label(std::move(metric_label)),
          bucket(quota.capacity, quota.refill_per_sec) {}

    /// The <tenant> of this tenant's serve.tenant.<tenant>.* counters.
    const std::string label;
    TokenBucket bucket;
  };

  struct Job {
    engine::Request request;
    Callback done;
    double admit_seconds = 0.0;
    const Tenant* tenant = nullptr;
  };

  void WorkerLoop();
  /// Completion bookkeeping for every admitted request, whether a worker
  /// or Submit answered it: the serve.* latency histograms and outcome
  /// counters, the callback, and in_flight_. `start_s` is when execution
  /// began on clock_ (the admission time for an answer at admission).
  void Finish(const Job& job, const engine::Response& response,
              double start_s);
  /// The tenant's own state, created on first use; the shared overflow
  /// state once kMaxTrackedTenants unconfigured tenants exist. `name` must
  /// be non-empty.
  Tenant& TenantFor(const std::string& name);
  void CountRejection(const std::string& reason, const std::string& tenant);

  ServeOptions options_;
  /// Shared by every worker and by Submit's answers at admission.
  engine::BatchRunner runner_;
  MatrixStore store_;
  metrics::Registry registry_;
  /// Process-lifetime monotonic clock: token-bucket refill timestamps and
  /// latency measurements share one origin.
  Timer clock_;
  BoundedQueue<Job> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> in_flight_{0};

  Mutex workers_mu_;
  std::vector<std::thread> workers_ GUARDED_BY(workers_mu_);

  Mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_
      GUARDED_BY(tenants_mu_);
  size_t unconfigured_tenants_ GUARDED_BY(tenants_mu_) = 0;
  Tenant other_tenants_;
};

}  // namespace serve
}  // namespace spnet

#endif  // SPNET_SERVE_SERVER_H_
