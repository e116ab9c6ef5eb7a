// Tests for the serving layer: the BoundedQueue / TokenBucket primitives,
// histogram percentiles, the NDJSON wire codec, and the Server's
// admission-control contract — queue-full rejection, per-tenant quota
// exhaustion under concurrent tenants, the bound on per-tenant state,
// graceful drain, deadline inheritance, the serve.admit fault-injection
// site, and measured plan-cache hits answered at admission.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/token_bucket.h"
#include "engine/request.h"
#include "metrics/registry.h"
#include "serve/matrix_store.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tests/test_util.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace serve {
namespace {

using verify::FaultInjector;
using testing_util::Numbered;

/// Guarantees the process-wide injector is disarmed when a test exits,
/// even on assertion failure.
class InjectorGuard {
 public:
  InjectorGuard() { FaultInjector::Global().Reset(); }
  ~InjectorGuard() { FaultInjector::Global().Reset(); }
};

/// Thread-safe response collector with a completion latch: server
/// callbacks run on worker threads, tests block on WaitFor(n).
class ResponseLog {
 public:
  Server::Callback Sink() {
    return [this](const engine::Response& response) {
      MutexLock lock(&mu_);
      responses_.push_back(response);
      arrived_.NotifyAll();
    };
  }

  void WaitFor(size_t n) {
    MutexLock lock(&mu_);
    while (responses_.size() < n) arrived_.Wait(&mu_);
  }

  std::vector<engine::Response> Take() {
    MutexLock lock(&mu_);
    return responses_;
  }

 private:
  Mutex mu_;
  CondVar arrived_;
  std::vector<engine::Response> responses_ GUARDED_BY(mu_);
};

ServeOptions SmallServerOptions() {
  ServeOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  options.store.load.scale = 0.02;
  return options;
}

WireRequest SmallWire(const std::string& id,
                      const std::string& tenant = "default") {
  WireRequest wire;
  wire.id = id;
  wire.tenant = tenant;
  wire.source = "as-caida";
  return wire;
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, PopsHighestPriorityFirstFifoWithinClass) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.TryPush(1, /*priority=*/0));
  EXPECT_TRUE(queue.TryPush(2, /*priority=*/5));
  EXPECT_TRUE(queue.TryPush(3, /*priority=*/5));
  EXPECT_TRUE(queue.TryPush(4, /*priority=*/-1));
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);  // highest class first
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 3);  // FIFO within the class
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 4);
}

TEST(BoundedQueueTest, TryPushRejectsWhenFullWithoutBlocking) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 2u);
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.TryPush(3));  // capacity freed
}

TEST(BoundedQueueTest, CloseDeliversQueuedItemsThenPopsFalse) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(3));  // closed to producers
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_FALSE(queue.Pop(&out));  // drained: the worker-exit signal
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> popped{false};
  std::thread consumer([&queue, &popped] {
    int out = 0;
    popped.store(queue.Pop(&out));
  });
  queue.Close();
  consumer.join();
  EXPECT_FALSE(popped.load());
}

// ------------------------------------------------------------- TokenBucket

TEST(TokenBucketTest, ZeroRefillIsAHardCap) {
  // refill 0 makes exhaustion deterministic — no wall clock involved.
  TokenBucket bucket(2.0, 0.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(1e9));  // never refills
}

TEST(TokenBucketTest, RefillsAtConfiguredRateUpToCapacity) {
  TokenBucket bucket(2.0, 1.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_FALSE(bucket.TryAcquire(0.5));  // only 0.5 tokens back
  EXPECT_TRUE(bucket.TryAcquire(1.5));   // 1.5 tokens accrued
  // Idle time past capacity does not bank extra burst.
  EXPECT_DOUBLE_EQ(bucket.Available(100.0), 2.0);
}

TEST(TokenBucketTest, StaleTimestampCannotMintTokens) {
  TokenBucket bucket(1.0, 1000.0);
  EXPECT_TRUE(bucket.TryAcquire(10.0));
  // A reader with an older clock must not be credited a negative refill
  // or re-credited the interval.
  EXPECT_FALSE(bucket.TryAcquire(10.0));
  EXPECT_FALSE(bucket.TryAcquire(9.0));
}

TEST(TokenBucketTest, NonPositiveCapacityIsUnlimited) {
  TokenBucket bucket(0.0, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(0.0));
}

TEST(TokenBucketTest, TinyRefillAccruesAcrossPollsWithoutStarvation) {
  // Regression guard: a very small refill rate polled at fine granularity
  // must accumulate fractional tokens across calls — per-poll increments
  // far below one token cannot be silently rounded away, or a low-rate
  // tenant would starve forever. Powers of two keep the arithmetic exact
  // so the assertions are deterministic.
  TokenBucket bucket(1.0, 1.0 / 1024.0);  // ~17 minutes per token
  EXPECT_TRUE(bucket.TryAcquire(0.0));    // drain the burst token
  for (int i = 1; i < 1024; ++i) {
    // Each poll refills by exactly 1/1024 of a token; none reaches 1.
    EXPECT_FALSE(bucket.TryAcquire(static_cast<double>(i))) << "poll " << i;
  }
  EXPECT_TRUE(bucket.TryAcquire(1024.0));   // exactly one token accrued
  EXPECT_FALSE(bucket.TryAcquire(1024.0));  // and it was spent whole
  EXPECT_DOUBLE_EQ(bucket.Available(1536.0), 0.5);
}

// --------------------------------------------------- Histogram percentiles

TEST(HistogramPercentileTest, EmptyIsZeroAndSingleValueIsExact) {
  metrics::Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  h.Observe(42);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 42.0);
}

TEST(HistogramPercentileTest, QuantilesAreMonotoneAndClampedToMinMax) {
  metrics::Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Observe(v);
  const double p50 = h.Percentile(0.50);
  const double p99 = h.Percentile(0.99);
  const double p999 = h.Percentile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p999, 1000.0);
  // Log2 buckets bound the relative error to one power of two.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1023.0);
  EXPECT_GE(p99, 512.0);
}

// -------------------------------------------------------------------- wire

TEST(WireTest, ParsesEveryField) {
  auto wire = ParseRequestLine(
      "{\"schema_version\":1,\"id\":\"q7\",\"tenant\":\"team-a\","
      "\"priority\":3,\"deadline_ms\":250.5,\"source\":\"as-caida\","
      "\"algorithm\":\"row-product\"}");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->schema_version, 1);
  EXPECT_EQ(wire->id, "q7");
  EXPECT_EQ(wire->tenant, "team-a");
  EXPECT_EQ(wire->priority, 3);
  EXPECT_DOUBLE_EQ(wire->deadline_ms, 250.5);
  EXPECT_EQ(wire->source, "as-caida");
  EXPECT_EQ(wire->algorithm, "row-product");
}

TEST(WireTest, DefaultsAndUnknownKeysAreAdditive) {
  auto wire = ParseRequestLine(
      "{\"id\":\"q1\",\"source\":\"as-caida\",\"future_field\":true}");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(wire->schema_version, engine::kRequestSchemaVersion);
  EXPECT_EQ(wire->tenant, "default");
  EXPECT_EQ(wire->priority, 0);
  EXPECT_DOUBLE_EQ(wire->deadline_ms, engine::Request::kInheritDeadline);
}

TEST(WireTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRequestLine("").ok());
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine("{\"id\":\"q\"}").ok());  // no source
  EXPECT_FALSE(
      ParseRequestLine("{\"source\":\"as-caida\"}").ok());  // no id
  EXPECT_FALSE(ParseRequestLine("{\"id\":\"q\",\"source\":\"s\","
                                "\"schema_version\":99}")
                   .ok());
  EXPECT_FALSE(ParseRequestLine("{\"id\":\"q\",\"source\":\"s\","
                                "\"nested\":{\"a\":1}}")
                   .ok());
}

TEST(WireTest, SerializeResponseCarriesStatusAndMeasurements) {
  engine::Response response;
  response.id = "q1";
  response.tenant = "t0";
  response.status = Status::DeadlineExceeded("too slow");
  response.algorithm_used = "reorganizer";
  response.wall_ms = 1.5;
  const std::string line = SerializeResponse(response);
  EXPECT_NE(line.find("\"id\":\"q1\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"tenant\":\"t0\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
  EXPECT_NE(line.find("DeadlineExceeded"), std::string::npos) << line;
  EXPECT_NE(line.find("too slow"), std::string::npos) << line;
  // One line per response: embedded newlines would corrupt the stream.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// ------------------------------------------------------------------ Server

/// A request for C = A^2 on the server's copy of `source`.
engine::Request StoreRequest(Server& server, const std::string& id,
                             const std::string& tenant = "default",
                             const std::string& source = "as-caida") {
  auto matrix = server.matrix_store().Get(source);
  SPNET_CHECK(matrix.ok()) << matrix.status().ToString();
  auto request = engine::RequestBuilder()
                     .Id(id)
                     .Tenant(tenant)
                     .OperandA(std::move(matrix).value())
                     .Build();
  SPNET_CHECK(request.ok()) << request.status().ToString();
  return std::move(request).value();
}

/// Holds a server's only worker inside a callback until Release().
class WorkerStall {
 public:
  Server::Callback Callback() {
    return [this](const engine::Response&) {
      MutexLock lock(&mu_);
      stalled_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(&mu_);
    };
  }
  void WaitStalled() {
    MutexLock lock(&mu_);
    while (!stalled_) cv_.Wait(&mu_);
  }
  void Release() {
    MutexLock lock(&mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool stalled_ GUARDED_BY(mu_) = false;
  bool released_ GUARDED_BY(mu_) = false;
};

TEST(ServerTest, ExecutesRequestsAndHitsSharedPlanCache) {
  Server server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  ASSERT_TRUE(server.SubmitWire(SmallWire("q1"), log.Sink()).ok());
  log.WaitFor(1);
  EXPECT_EQ(server.plan_cache().misses(), 1);
  EXPECT_EQ(server.plan_cache().hits(), 0);
  ASSERT_TRUE(server.SubmitWire(SmallWire("q2"), log.Sink()).ok());
  // q1 measured its plan, so q2 was answered before Submit returned.
  EXPECT_EQ(log.Take().size(), 2u);
  server.Drain();

  const auto responses = log.Take();
  ASSERT_EQ(responses.size(), 2u);
  for (const engine::Response& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.algorithm_used, "reorganizer");
    EXPECT_GT(r.sim_ms, 0.0);
  }
  // q2 reused q1's plan through the shared cache: one lookup each.
  EXPECT_FALSE(responses[0].plan_cache_hit);
  EXPECT_TRUE(responses[1].plan_cache_hit);
  EXPECT_EQ(server.plan_cache().hits(), 1);
  EXPECT_EQ(server.plan_cache().misses(), 1);
  EXPECT_EQ(server.registry().Snapshot().at("serve.answered_at_admission"), 1);
}

TEST(ServerTest, QuotaExhaustionRejectsWithResourceExhausted) {
  ServeOptions options = SmallServerOptions();
  options.default_quota.capacity = 2.0;
  options.default_quota.refill_per_sec = 0.0;  // deterministic: never refills
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  ASSERT_TRUE(server.SubmitWire(SmallWire("q1", "capped"), log.Sink()).ok());
  ASSERT_TRUE(server.SubmitWire(SmallWire("q2", "capped"), log.Sink()).ok());
  const Status third =
      server.SubmitWire(SmallWire("q3", "capped"), log.Sink());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("quota"), std::string::npos)
      << third.ToString();
  // Quotas are per tenant: another tenant is unaffected by the default
  // bucket being drained for "capped" only.
  ASSERT_TRUE(server.SubmitWire(SmallWire("q4", "other"), log.Sink()).ok());
  log.WaitFor(3);  // the two admitted + the other tenant's
  server.Drain();
  const auto snapshot = server.registry().Snapshot();
  EXPECT_EQ(snapshot.at("serve.rejected.quota"), 1);
  EXPECT_EQ(snapshot.at("serve.tenant.capped.rejected"), 1);
  EXPECT_EQ(snapshot.at("serve.tenant.capped.admitted"), 2);
}

TEST(ServerTest, QuotaClipsAConcurrentFloodWhilePoliteTenantCompletes) {
  // One thread floods a capped tenant while the main thread submits for
  // an unlimited one: admission, quota accounting and per-tenant counters
  // are raced from two producers and two workers (serve-smoke runs this
  // suite under TSan).
  ServeOptions options = SmallServerOptions();
  options.queue_capacity = 64;  // never the binding limit here
  options.tenant_quotas["flood"] = TenantQuota{8.0, 0.0};
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Status> flood_status;
  std::thread flooder([&server, &flood_status] {
    for (int i = 0; i < 40; ++i) {
      flood_status.push_back(server.SubmitWire(
          SmallWire(Numbered("f", i), "flood"), nullptr));
    }
  });
  ResponseLog polite_log;
  constexpr int kPolite = 10;
  for (int i = 0; i < kPolite; ++i) {
    const Status admitted = server.SubmitWire(
        SmallWire(Numbered("p", i), "polite"), polite_log.Sink());
    EXPECT_TRUE(admitted.ok()) << admitted.ToString();
  }
  flooder.join();
  server.Drain();

  int quota_rejections = 0;
  for (const Status& s : flood_status) {
    if (s.code() == StatusCode::kResourceExhausted &&
        s.message().find("quota") != std::string::npos) {
      ++quota_rejections;
    }
  }
  EXPECT_EQ(quota_rejections, 40 - 8);  // refill 0: exactly 8 tokens
  const auto polite = polite_log.Take();
  ASSERT_EQ(polite.size(), static_cast<size_t>(kPolite));
  for (const engine::Response& r : polite) {
    EXPECT_TRUE(r.status.ok()) << r.id << ": " << r.status.ToString();
  }
  const auto snapshot = server.registry().Snapshot();
  EXPECT_EQ(snapshot.at("serve.tenant.flood.admitted"), 8);
  EXPECT_EQ(snapshot.at("serve.tenant.flood.rejected"), 40 - 8);
  EXPECT_EQ(snapshot.at("serve.tenant.polite.completed"), kPolite);
}

TEST(ServerTest, TenantStateStaysBoundedPastTheCap) {
  // Tenant names are client input: past kMaxTrackedTenants, unconfigured
  // tenants share one bucket and one serve.tenant.other.* series, while a
  // configured tenant keeps its own quota however late it first appears.
  ServeOptions options = SmallServerOptions();
  options.queue_capacity = 256;
  options.tenant_quotas["vip"] = TenantQuota{1.0, 0.0};
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  const size_t extra = 16;
  for (size_t i = 0; i < kMaxTrackedTenants + extra; ++i) {
    const std::string tenant = Numbered("t", i);
    ASSERT_TRUE(server.SubmitWire(SmallWire(tenant, tenant), log.Sink()).ok())
        << tenant;
  }
  ASSERT_TRUE(server.SubmitWire(SmallWire("vip1", "vip"), log.Sink()).ok());
  const Status second = server.SubmitWire(SmallWire("vip2", "vip"), log.Sink());
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted)
      << second.ToString();
  server.Drain();

  const auto snapshot = server.registry().Snapshot();
  const std::string prefix = "serve.tenant.";
  std::set<std::string> labels;
  for (const auto& [name, value] : snapshot) {
    if (name.rfind(prefix, 0) != 0) continue;
    labels.insert(name.substr(prefix.size(), name.rfind('.') - prefix.size()));
  }
  // The tracked tenants, "vip" and the shared "other".
  EXPECT_EQ(labels.size(), kMaxTrackedTenants + 2);
  EXPECT_EQ(labels.count("other"), 1u);
  EXPECT_EQ(labels.count(Numbered("t", kMaxTrackedTenants)), 0u);
  EXPECT_EQ(snapshot.at("serve.tenant.other.admitted"),
            static_cast<double>(extra));
  EXPECT_EQ(snapshot.at("serve.tenant.vip.admitted"), 1);
  EXPECT_EQ(snapshot.at("serve.tenant.vip.rejected"), 1);
}

TEST(ServerTest, FullQueueRejectsWithResourceExhausted) {
  ServeOptions options = SmallServerOptions();
  options.workers = 1;
  options.queue_capacity = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // Stall the single worker inside the first request's callback so the
  // queue state is deterministic: q2 occupies the only slot, q3 must be
  // rejected without blocking. q1's measured plan is cached before its
  // callback runs, so q2 and q3 ask for another algorithm: a hit would be
  // answered at admission and never queue.
  WorkerStall stall;
  ASSERT_TRUE(server.SubmitWire(SmallWire("q1"), stall.Callback()).ok());
  stall.WaitStalled();
  WireRequest q2 = SmallWire("q2");
  q2.algorithm = "row-product";
  WireRequest q3 = SmallWire("q3");
  q3.algorithm = "row-product";
  ResponseLog log;
  ASSERT_TRUE(server.SubmitWire(q2, log.Sink()).ok());
  const Status third = server.SubmitWire(q3, log.Sink());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(third.message().find("queue full"), std::string::npos)
      << third.ToString();
  stall.Release();
  log.WaitFor(1);
  server.Drain();
  EXPECT_EQ(server.registry().Snapshot().at("serve.rejected.queue_full"), 1);
}

TEST(ServerTest, MeasuredHitIsAnsweredOnTheSubmittingThread) {
  ServeOptions options = SmallServerOptions();
  options.workers = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  // A worker-answered hit: with the only worker stalled on another
  // algorithm, "cold" and "hit" queue behind it; the worker then plans
  // "cold" and answers "hit" from the entry "cold" measured.
  WorkerStall stall;
  WireRequest other = SmallWire("stall");
  other.algorithm = "row-product";
  ASSERT_TRUE(server.SubmitWire(other, stall.Callback()).ok());
  stall.WaitStalled();
  ResponseLog worker_log;
  ASSERT_TRUE(server.Submit(StoreRequest(server, "cold"), worker_log.Sink())
                  .ok());
  ASSERT_TRUE(server.Submit(StoreRequest(server, "hit"), worker_log.Sink())
                  .ok());
  EXPECT_EQ(server.queue_depth(), 2u);
  stall.Release();
  worker_log.WaitFor(2);
  const engine::Response worker_hit = worker_log.Take()[1];
  ASSERT_EQ(worker_hit.id, "hit");
  ASSERT_TRUE(worker_hit.plan_cache_hit);

  // The same request again is answered inside Submit, on this thread.
  const std::thread::id submitter = std::this_thread::get_id();
  bool called = false;
  std::thread::id callback_thread;
  engine::Response answer;
  ASSERT_TRUE(server
                  .Submit(StoreRequest(server, "hit"),
                          [&](const engine::Response& response) {
                            called = true;
                            callback_thread = std::this_thread::get_id();
                            answer = response;
                          })
                  .ok());
  ASSERT_TRUE(called);
  EXPECT_EQ(callback_thread, submitter);
  server.Drain();

  EXPECT_EQ(answer.schema_version, worker_hit.schema_version);
  EXPECT_EQ(answer.id, worker_hit.id);
  EXPECT_EQ(answer.tenant, worker_hit.tenant);
  EXPECT_EQ(answer.status.code(), worker_hit.status.code());
  EXPECT_EQ(answer.status.message(), worker_hit.status.message());
  EXPECT_EQ(answer.algorithm_used, worker_hit.algorithm_used);
  EXPECT_EQ(answer.plan_cache_hit, worker_hit.plan_cache_hit);
  EXPECT_EQ(answer.fallback_used, worker_hit.fallback_used);
  EXPECT_EQ(answer.sim_ms, worker_hit.sim_ms);
  EXPECT_EQ(answer.gflops, worker_hit.gflops);
  EXPECT_EQ(answer.flops, worker_hit.flops);
  EXPECT_EQ(answer.output_nnz, worker_hit.output_nnz);

  // Completion bookkeeping counts the answer at admission like any other.
  const auto snapshot = server.registry().Snapshot();
  EXPECT_EQ(snapshot.at("serve.answered_at_admission"), 1);
  EXPECT_EQ(snapshot.at("serve.admitted"), 4);
  EXPECT_EQ(snapshot.at("serve.completed"), 4);
  EXPECT_EQ(snapshot.at("serve.plan_cache_hit"), 2);
  EXPECT_EQ(snapshot.at("serve.tenant.default.completed"), 4);
  const metrics::Histogram* latency =
      server.registry().FindHistogram("serve.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 4);
}

TEST(ServerTest, RejectionsPrecedeAnAnswerAtAdmission) {
  ServeOptions options = SmallServerOptions();
  options.tenant_quotas["capped"] = TenantQuota{1.0, 0.0};
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  ASSERT_TRUE(server.Submit(StoreRequest(server, "warmup"), log.Sink()).ok());
  log.WaitFor(1);

  std::atomic<int> rejected_callbacks{0};
  const Server::Callback must_not_run = [&](const engine::Response&) {
    rejected_callbacks.fetch_add(1);
  };
  ASSERT_TRUE(
      server.Submit(StoreRequest(server, "first", "capped"), log.Sink()).ok());
  const Status quota =
      server.Submit(StoreRequest(server, "second", "capped"), must_not_run);
  EXPECT_EQ(quota.code(), StatusCode::kResourceExhausted) << quota.ToString();
  server.BeginDrain();
  const Status draining =
      server.Submit(StoreRequest(server, "late"), must_not_run);
  EXPECT_EQ(draining.code(), StatusCode::kFailedPrecondition)
      << draining.ToString();
  server.Drain();

  EXPECT_EQ(rejected_callbacks.load(), 0);
  EXPECT_EQ(log.Take().size(), 2u);
  const auto snapshot = server.registry().Snapshot();
  EXPECT_EQ(snapshot.at("serve.rejected.quota"), 1);
  EXPECT_EQ(snapshot.at("serve.rejected.draining"), 1);
  EXPECT_EQ(snapshot.at("serve.answered_at_admission"), 1);
}

TEST(ServerTest, DrainCompletesInFlightAndRejectsNewWork) {
  Server server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        server.SubmitWire(SmallWire(Numbered("q", i)), log.Sink()).ok());
  }
  server.BeginDrain();
  const Status late = server.SubmitWire(SmallWire("late"), log.Sink());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  server.Drain();
  // Every admitted request completed; the late one never ran.
  const auto responses = log.Take();
  ASSERT_EQ(responses.size(), 6u);
  for (const engine::Response& r : responses) {
    EXPECT_TRUE(r.status.ok()) << r.id << ": " << r.status.ToString();
  }
  EXPECT_EQ(server.in_flight(), 0);
  const auto snapshot = server.registry().Snapshot();
  EXPECT_EQ(snapshot.at("serve.completed"), 6);
  EXPECT_EQ(snapshot.at("serve.rejected.draining"), 1);
}

TEST(ServerTest, DeadlineInheritsEngineDefaultThroughRequest) {
  ServeOptions options = SmallServerOptions();
  options.engine.default_deadline_ms = 1e-6;  // expires at the first check
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  // An explicit generous per-request budget overrides the default, and
  // plans and measures the key...
  WireRequest generous = SmallWire("explicit");
  generous.deadline_ms = 1e9;
  ASSERT_TRUE(server.SubmitWire(generous, log.Sink()).ok());
  log.WaitFor(1);
  // ...while kInheritDeadline (the wire default) picks up the engine
  // default, and expires although the key is cached.
  ASSERT_TRUE(server.SubmitWire(SmallWire("inherit"), log.Sink()).ok());
  log.WaitFor(2);
  server.Drain();
  for (const engine::Response& r : log.Take()) {
    if (r.id == "inherit") {
      EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
          << r.status.ToString();
      EXPECT_FALSE(r.plan_cache_hit);
    } else {
      EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    }
  }
  EXPECT_EQ(server.registry().Snapshot().at("serve.deadline_expired"), 1);
}

TEST(ServerTest, AdmitFaultInjectionRejectsAtTheAdmissionGate) {
  InjectorGuard guard;
  Server server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  FaultInjector::Global().Arm(verify::kSiteServeAdmit, /*first=*/1,
                              /*count=*/1, StatusCode::kResourceExhausted);
  ResponseLog log;
  const Status injected = server.SubmitWire(SmallWire("q1"), log.Sink());
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kResourceExhausted);
  // The window closed: the next submit is admitted normally.
  ASSERT_TRUE(server.SubmitWire(SmallWire("q2"), log.Sink()).ok());
  log.WaitFor(1);
  server.Drain();
  EXPECT_EQ(server.registry().Snapshot().at("serve.rejected.injected"), 1);
}

TEST(ServerTest, UnknownSourceIsRejectedAtSubmit) {
  Server server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ResponseLog log;
  WireRequest wire = SmallWire("q1");
  wire.source = "no-such-dataset";
  const Status s = server.SubmitWire(wire, log.Sink());
  ASSERT_FALSE(s.ok());
  server.Drain();
  EXPECT_EQ(server.registry().Snapshot().at("serve.rejected.source"), 1);
}

TEST(ServerTest, SubmitBeforeStartFailsAndStartPinsSources) {
  ServeOptions options = SmallServerOptions();
  options.pinned_sources.push_back("as-caida");
  Server server(options);
  ResponseLog log;
  EXPECT_FALSE(server.SubmitWire(SmallWire("early"), log.Sink()).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.matrix_store().pinned(), 1u);
  server.Drain();
}

TEST(ServerTest, StatsJsonNeverZeroFillsUnobservedPercentiles) {
  // An idle server's stats read must not materialize latency instruments
  // (FindHistogram, not GetHistogram) and must never spell "no data yet"
  // as 0.0 percentiles — a dashboard would read that as "instant".
  Server server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::string cold = server.StatsJson();
  for (const char* name :
       {"serve.queue_us", "serve.exec_us", "serve.latency_us"}) {
    EXPECT_EQ(cold.find(name), std::string::npos) << cold;
  }
  EXPECT_EQ(cold.find("p50"), std::string::npos) << cold;
  // The read itself created nothing: a second read is identical.
  EXPECT_EQ(server.StatsJson(), cold);

  ResponseLog log;
  ASSERT_TRUE(server.SubmitWire(SmallWire("q1"), log.Sink()).ok());
  log.WaitFor(1);
  server.Drain();
  const std::string warm = server.StatsJson();
  for (const char* name :
       {"serve.queue_us", "serve.exec_us", "serve.latency_us"}) {
    EXPECT_NE(warm.find(name), std::string::npos) << warm;
  }
  // One observation per histogram: real percentiles, no null sentinels.
  EXPECT_NE(warm.find("p50"), std::string::npos) << warm;
  EXPECT_EQ(warm.find("null"), std::string::npos) << warm;
}

// -------------------------------------------------------------- MatrixStore

MatrixStore::Options SmallStoreOptions(size_t capacity) {
  MatrixStore::Options options;
  options.load.scale = 0.02;
  options.capacity = capacity;
  return options;
}

TEST(MatrixStoreTest, PinnedSourcesSurviveEvictionPressure) {
  MatrixStore store(SmallStoreOptions(/*capacity=*/1));
  ASSERT_TRUE(store.Pin("as-caida").ok());
  // Churn unpinned sources through the capacity-1 LRU.
  ASSERT_TRUE(store.Get("epinions").ok());
  ASSERT_TRUE(store.Get("loc-gowalla").ok());  // evicts epinions
  ASSERT_TRUE(store.Get("scircuit").ok());    // evicts loc-gowalla
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_EQ(store.pinned(), 1u);
  EXPECT_EQ(store.size(), 2u);  // the pin plus one unpinned resident
  // The pinned source never left residency and never counted against the
  // unpinned capacity.
  ASSERT_TRUE(store.Get("as-caida").ok());
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_EQ(store.size(), 2u);
}

TEST(MatrixStoreTest, PinningResidentEntryPromotesItOutOfTheLru) {
  MatrixStore store(SmallStoreOptions(/*capacity=*/2));
  ASSERT_TRUE(store.Get("epinions").ok());
  ASSERT_TRUE(store.Get("loc-gowalla").ok());
  // epinions is the LRU tail; pinning it mid-pressure removes it from
  // eviction candidacy entirely.
  ASSERT_TRUE(store.Pin("epinions").ok());
  EXPECT_EQ(store.pinned(), 1u);
  ASSERT_TRUE(store.Get("scircuit").ok());  // fills the freed unpinned slot
  EXPECT_EQ(store.evictions(), 0);
  // Now the oldest unpinned entry (loc-gowalla) goes.
  ASSERT_TRUE(store.Get("sx-mathoverflow").ok());
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.size(), 3u);  // the pin + {scircuit, sx-mathoverflow}
}

TEST(MatrixStoreTest, UnpinDemotesToMruAndRestoresCapacityAccounting) {
  MatrixStore store(SmallStoreOptions(/*capacity=*/1));
  ASSERT_TRUE(store.Pin("epinions").ok());
  ASSERT_TRUE(store.Get("loc-gowalla").ok());  // the single unpinned slot
  // Demotion re-enters the LRU as most recently used; the store is now
  // one over capacity and must evict the true tail (loc-gowalla), not
  // the entry that was just demoted.
  ASSERT_TRUE(store.Unpin("epinions").ok());
  EXPECT_EQ(store.pinned(), 0u);
  EXPECT_EQ(store.evictions(), 1);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Get("epinions").ok());  // still resident, no reload needed
  EXPECT_EQ(store.evictions(), 1);

  // Bookkeeping errors are typed: unpinning an unpinned resident entry is
  // a precondition failure, unpinning an absent source is NotFound.
  EXPECT_EQ(store.Unpin("epinions").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store.Unpin("absent").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace serve
}  // namespace spnet
