#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/block_reorganizer.h"
#include "engine/batch_runner.h"
#include "engine/manifest.h"
#include "engine/plan_cache.h"
#include "gpusim/device_spec.h"
#include "sparse/fingerprint.h"
#include "spgemm/algorithm.h"
#include "spgemm/algorithm_registry.h"
#include "spgemm/exec_context.h"
#include "tests/test_util.h"
#include "verify/fault_injection.h"

namespace spnet {
namespace engine {
namespace {

using sparse::CsrMatrix;
using sparse::StructuralFingerprint;

std::shared_ptr<const CsrMatrix> SharedSkewed(sparse::Index n,
                                              sparse::Index hub_nnz,
                                              uint64_t seed) {
  return std::make_shared<const CsrMatrix>(
      testing_util::SkewedMatrix(n, hub_nnz, seed));
}

spgemm::SpGemmPlan DummyPlan(int64_t flops) {
  spgemm::SpGemmPlan plan;
  plan.flops = flops;
  plan.output_nnz = flops;
  return plan;
}

// ---------------------------------------------------------------- fingerprint

TEST(FingerprintTest, StableAcrossIdenticalBuilds) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const CsrMatrix b = testing_util::SkewedMatrix(64, 32, 7);
  EXPECT_EQ(StructuralFingerprint(a), StructuralFingerprint(b));
}

TEST(FingerprintTest, IgnoresValues) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  // Same structure, different numerics.
  std::vector<sparse::Value> doubled(a.values());
  for (sparse::Value& v : doubled) v *= 2.0;
  auto b = CsrMatrix::FromParts(a.rows(), a.cols(), a.ptr(), a.indices(),
                                std::move(doubled));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(StructuralFingerprint(a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, EmptyMatrixSpellingsShareAKey) {
  // A default-constructed matrix stores an empty ptr array; builder-built
  // empties carry rows()+1 zeros. Same logical structure, same key.
  const CsrMatrix default_built;
  sparse::CooMatrix coo(0, 0);
  auto builder_built = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(builder_built.ok());
  EXPECT_EQ(StructuralFingerprint(default_built),
            StructuralFingerprint(*builder_built));
}

TEST(FingerprintTest, EmptyMatricesOfDifferentShapesDiffer) {
  sparse::CooMatrix coo3(3, 3);
  sparse::CooMatrix coo4(4, 4);
  sparse::CooMatrix coo34(3, 4);
  sparse::CooMatrix coo43(4, 3);
  auto m3 = CsrMatrix::FromCoo(coo3);
  auto m4 = CsrMatrix::FromCoo(coo4);
  auto m34 = CsrMatrix::FromCoo(coo34);
  auto m43 = CsrMatrix::FromCoo(coo43);
  ASSERT_TRUE(m3.ok() && m4.ok() && m34.ok() && m43.ok());
  EXPECT_NE(StructuralFingerprint(*m3), StructuralFingerprint(*m4));
  EXPECT_NE(StructuralFingerprint(*m3), StructuralFingerprint(*m34));
  // Swapped rows and cols. A valid ptr has rows+1 entries, so swapped
  // shapes cannot share every array; the closest pair is all-zero ptrs
  // and an empty index array.
  EXPECT_NE(StructuralFingerprint(*m34), StructuralFingerprint(*m43));
}

TEST(FingerprintTest, EmptyAndNearEmptyDiffer) {
  sparse::CooMatrix empty(3, 3);
  sparse::CooMatrix one(3, 3);
  one.Add(1, 1, 5.0);
  auto a = CsrMatrix::FromCoo(empty);
  auto b = CsrMatrix::FromCoo(one);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(StructuralFingerprint(*a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, DistinguishesStructures) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const CsrMatrix b = testing_util::SkewedMatrix(64, 32, 8);
  const CsrMatrix c = testing_util::SkewedMatrix(65, 32, 7);
  EXPECT_NE(StructuralFingerprint(a), StructuralFingerprint(b));
  EXPECT_NE(StructuralFingerprint(a), StructuralFingerprint(c));
}

TEST(FingerprintTest, DistinguishesDimsOfEmptyMatrices) {
  // Same (empty) arrays, different dimensions: dims must be hashed too.
  auto a = CsrMatrix::FromParts(0, 5, {0}, {}, {});
  auto b = CsrMatrix::FromParts(0, 6, {0}, {}, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(StructuralFingerprint(*a), StructuralFingerprint(*b));
}

TEST(FingerprintTest, ValuesArePinned) {
  // Pinned so that any change to the hash is a deliberate act; nothing
  // persists fingerprints, so updating these is safe when it is intended.
  EXPECT_EQ(StructuralFingerprint(testing_util::SkewedMatrix(64, 32, 7)),
            0xba1adcec546e79e7ULL);
  EXPECT_EQ(StructuralFingerprint(testing_util::SkewedMatrix(200, 64, 3)),
            0x34c7264dbf452e4dULL);
  EXPECT_EQ(StructuralFingerprint(testing_util::SkewedMatrix(1001, 300, 11)),
            0x0aa7c4a5476fca23ULL);
}

TEST(FingerprintTest, CopyKeepsTheFingerprint) {
  const CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const uint64_t fp = StructuralFingerprint(a);
  const CsrMatrix copied(a);
  EXPECT_EQ(StructuralFingerprint(copied), fp);
  // Assigning over a matrix that cached another structure takes the
  // source's value, not the stale one.
  CsrMatrix assigned = testing_util::SkewedMatrix(200, 64, 3);
  ASSERT_NE(StructuralFingerprint(assigned), fp);
  assigned = a;
  EXPECT_EQ(StructuralFingerprint(assigned), fp);
}

TEST(FingerprintTest, MoveHandsTheFingerprintOver) {
  const uint64_t empty = StructuralFingerprint(CsrMatrix{});
  CsrMatrix a = testing_util::SkewedMatrix(64, 32, 7);
  const uint64_t fp = StructuralFingerprint(a);
  CsrMatrix moved(std::move(a));
  EXPECT_EQ(StructuralFingerprint(moved), fp);
  // The moved-from matrix is an empty 0x0 matrix with nothing cached.
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(a.rows(), 0);
  EXPECT_EQ(a.cols(), 0);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(StructuralFingerprint(a), empty);

  CsrMatrix assigned = testing_util::SkewedMatrix(200, 64, 3);
  ASSERT_NE(StructuralFingerprint(assigned), fp);
  assigned = std::move(moved);
  EXPECT_EQ(StructuralFingerprint(assigned), fp);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(StructuralFingerprint(moved), empty);
}

TEST(FingerprintTest, SortRowsClearsTheCachedFingerprint) {
  // Row 0 holds columns {2, 0}: sorting changes the index array.
  auto m = CsrMatrix::FromParts(2, 3, {0, 2, 3}, {2, 0, 1}, {1, 2, 3});
  auto sorted = CsrMatrix::FromParts(2, 3, {0, 2, 3}, {0, 2, 1}, {2, 1, 3});
  ASSERT_TRUE(m.ok() && sorted.ok());
  ASSERT_NE(StructuralFingerprint(*m), StructuralFingerprint(*sorted));
  m->SortRows();
  EXPECT_EQ(StructuralFingerprint(*m), StructuralFingerprint(*sorted));
}

TEST(FingerprintTest, ConcurrentFirstCallsAgree) {
  const uint64_t expected =
      StructuralFingerprint(testing_util::SkewedMatrix(1001, 300, 11));
  // Never hashed before the pool's chunks race to fill its cache.
  const CsrMatrix shared = testing_util::SkewedMatrix(1001, 300, 11);
  ThreadPool pool(4);
  constexpr int64_t kCalls = 64;
  std::vector<uint64_t> seen(kCalls, 0);
  ASSERT_TRUE(pool.ParallelFor(0, kCalls, 1,
                               [&](int64_t begin, int64_t end, int) {
                                 for (int64_t i = begin; i < end; ++i) {
                                   seen[static_cast<size_t>(i)] =
                                       StructuralFingerprint(shared);
                                 }
                                 return Status::Ok();
                               })
                  .ok());
  for (const uint64_t fp : seen) EXPECT_EQ(fp, expected);
}

TEST(FingerprintTest, DistinguishesNearIdenticalStructures) {
  struct Pair {
    const char* what;
    std::vector<sparse::Offset> ptr_a, ptr_b;
    std::vector<sparse::Index> indices_a, indices_b;
  };
  const std::vector<Pair> pairs = {
      {"one moved column index", {0, 2, 3}, {0, 2, 3}, {0, 1, 2}, {0, 3, 2}},
      // Entry (0, 3) becomes (1, 3): rows {[0,3],[1]} vs {[0],[1,3]}.
      {"entry moved across a row boundary",
       {0, 2, 3}, {0, 1, 3}, {0, 3, 1}, {0, 1, 3}},
      // One index sequence, two row partitions: {[1,2],[3]} vs {[1],[2,3]}.
      {"same indices split across rows",
       {0, 2, 3}, {0, 1, 3}, {1, 2, 3}, {1, 2, 3}},
  };
  for (const Pair& p : pairs) {
    auto a = CsrMatrix::FromParts(2, 4, p.ptr_a, p.indices_a, {1, 1, 1});
    auto b = CsrMatrix::FromParts(2, 4, p.ptr_b, p.indices_b, {1, 1, 1});
    ASSERT_TRUE(a.ok() && b.ok()) << p.what;
    EXPECT_NE(StructuralFingerprint(*a), StructuralFingerprint(*b)) << p.what;
  }
}

TEST(FingerprintTest, CombineIsOrderSensitive) {
  EXPECT_NE(sparse::CombineFingerprints(1, 2),
            sparse::CombineFingerprints(2, 1));
}

// ----------------------------------------------------------------- plan cache

TEST(PlanCacheTest, LruEvictionOrder) {
  PlanCache cache(2);
  const PlanKey k1{1, 1, "x", 0};
  const PlanKey k2{2, 2, "x", 0};
  const PlanKey k3{3, 3, "x", 0};
  cache.Insert(k1, DummyPlan(1));
  cache.Insert(k2, DummyPlan(2));
  // Touch k1 so k2 becomes the least recently used entry.
  ASSERT_NE(cache.Lookup(k1), nullptr);
  cache.Insert(k3, DummyPlan(3));

  EXPECT_EQ(cache.Lookup(k2), nullptr);  // evicted
  auto p1 = cache.Lookup(k1);
  auto p3 = cache.Lookup(k3);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p3, nullptr);
  EXPECT_EQ(p1->flops, 1);
  EXPECT_EQ(p3->flops, 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  PlanCache cache(0);
  const PlanKey k{1, 1, "x", 0};
  auto inserted = cache.Insert(k, DummyPlan(1));
  ASSERT_NE(inserted, nullptr);  // caller still gets the shared plan
  EXPECT_EQ(cache.Lookup(k), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, KeysDifferingOnlyInConfigAreDistinct) {
  PlanCache cache(4);
  const PlanKey k1{1, 1, "reorganizer", 10};
  const PlanKey k2{1, 1, "reorganizer", 11};
  cache.Insert(k1, DummyPlan(1));
  EXPECT_EQ(cache.Lookup(k2), nullptr);
  EXPECT_NE(cache.Lookup(k1), nullptr);
}

TEST(PlanCacheTest, RecordsCountersOnContext) {
  spgemm::ExecContext ctx;
  PlanCache cache(1);
  const PlanKey k1{1, 1, "x", 0};
  const PlanKey k2{2, 2, "x", 0};
  EXPECT_EQ(cache.Lookup(k1, &ctx), nullptr);  // miss
  cache.Insert(k1, DummyPlan(1), &ctx);
  EXPECT_NE(cache.Lookup(k1, &ctx), nullptr);  // hit
  cache.Insert(k2, DummyPlan(2), &ctx);        // evicts k1

  const auto snapshot = ctx.registry.Snapshot();
  EXPECT_EQ(snapshot.at("engine.plan_cache.miss"), 1);
  EXPECT_EQ(snapshot.at("engine.plan_cache.hit"), 1);
  EXPECT_EQ(snapshot.at("engine.plan_cache.evict"), 1);
}

TEST(PlanCacheTest, ShardedCacheAggregatesCountersGlobally) {
  // 4 shards, capacity 8: per-shard LRU, but hits/misses/evictions must
  // aggregate across shards so ExecutionReport and serve stats consumers
  // see the same totals a single-shard cache reports.
  PlanCache cache(8, /*shards=*/4);
  EXPECT_EQ(cache.shards(), 4u);
  for (uint64_t i = 0; i < 8; ++i) {
    const PlanKey k{i + 1, i + 1, "x", 0};
    EXPECT_EQ(cache.Lookup(k), nullptr);  // miss
    cache.Insert(k, DummyPlan(static_cast<int64_t>(i)));
    EXPECT_NE(cache.Lookup(k), nullptr);  // hit
  }
  EXPECT_EQ(cache.misses(), 8);
  EXPECT_EQ(cache.hits(), 8);
  // Keys hash unevenly across shards, so a hot shard may already have
  // evicted; the books must still balance globally.
  EXPECT_EQ(cache.size(),
            8u - static_cast<size_t>(cache.evictions()));
  // Push enough new keys to overflow every shard's share of the capacity.
  for (uint64_t i = 100; i < 132; ++i) {
    cache.Insert(PlanKey{i, i, "x", 0}, DummyPlan(1));
  }
  EXPECT_GT(cache.evictions(), 0);
  // Shards never grow past the distributed capacity, and every insert is
  // either resident or evicted.
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.size(), 40u - static_cast<size_t>(cache.evictions()));
}

TEST(PlanCacheTest, MemoizesTheMeasurementWithThePlan) {
  PlanCache cache(4);
  const PlanKey measured{1, 1, "x", 0};
  const PlanKey plan_only{2, 2, "x", 0};
  spgemm::SpGemmMeasurement m;
  m.total_seconds = 0.25;
  m.flops = 7;
  cache.Insert(measured, DummyPlan(7), m);
  cache.Insert(plan_only, DummyPlan(8));

  const CachedPlan hit = cache.Find(measured);
  ASSERT_NE(hit.plan, nullptr);
  ASSERT_NE(hit.measurement, nullptr);
  EXPECT_EQ(hit.plan->flops, 7);
  EXPECT_EQ(hit.measurement->total_seconds, 0.25);
  EXPECT_EQ(cache.Lookup(measured), hit.plan);

  const CachedPlan bare = cache.Find(plan_only);
  ASSERT_NE(bare.plan, nullptr);
  EXPECT_EQ(bare.measurement, nullptr);

  // Replacing a measured entry plan-only drops the memo with the old plan.
  cache.Insert(measured, DummyPlan(9));
  EXPECT_EQ(cache.Find(measured).measurement, nullptr);
  EXPECT_EQ(cache.Find(PlanKey{3, 3, "x", 0}).plan, nullptr);
}

TEST(PlanCacheTest, FindMeasuredCountsAndRefreshesOnlyMeasuredHits) {
  spgemm::ExecContext ctx;
  PlanCache cache(2);
  const PlanKey measured{1, 1, "x", 0};
  const PlanKey plan_only{2, 2, "x", 0};
  spgemm::SpGemmMeasurement m;
  m.flops = 7;
  cache.Insert(measured, DummyPlan(7), m);
  cache.Insert(plan_only, DummyPlan(8));  // most recently used

  EXPECT_EQ(cache.FindMeasured(PlanKey{3, 3, "x", 0}, &ctx).plan, nullptr);
  EXPECT_EQ(cache.FindMeasured(plan_only, &ctx).plan, nullptr);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_TRUE(ctx.registry.Snapshot().empty());

  const CachedPlan hit = cache.FindMeasured(measured, &ctx);
  ASSERT_NE(hit.measurement, nullptr);
  EXPECT_EQ(hit.measurement->flops, 7);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(ctx.registry.Snapshot().at("engine.plan_cache.hit"), 1);

  // The hit made `measured` most recently used: the next insert evicts
  // the plan-only entry instead.
  cache.Insert(PlanKey{4, 4, "x", 0}, DummyPlan(9));
  EXPECT_NE(cache.Find(measured).plan, nullptr);
  EXPECT_EQ(cache.Find(plan_only).plan, nullptr);
}

TEST(PlanCacheTest, RecordsItsDevice) {
  EXPECT_EQ(PlanCache(1).device(), gpusim::DeviceSpec::TitanXp());
  const PlanCache v100(1, 1, gpusim::DeviceSpec::TeslaV100());
  EXPECT_EQ(v100.device(), gpusim::DeviceSpec::TeslaV100());
  EXPECT_NE(v100.device(), gpusim::DeviceSpec::TitanXp());
}

TEST(PlanCacheTest, SingleShardKeepsExactGlobalLru) {
  // The default shard count must preserve the exact global LRU order the
  // legacy tests (LruEvictionOrder above) rely on.
  PlanCache cache(2);
  EXPECT_EQ(cache.shards(), 1u);
}

// -------------------------------------------------------------- request API

TEST(RequestBuilderTest, BuildsValidatedRequests) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request = RequestBuilder()
                     .Id("r1")
                     .Tenant("team-a")
                     .Priority(2)
                     .DeadlineMs(125.0)
                     .Algorithm("reorganizer")
                     .OperandA(m)
                     .Build();
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->schema_version, kRequestSchemaVersion);
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->tenant, "team-a");
  EXPECT_EQ(request->priority, 2);
  EXPECT_DOUBLE_EQ(request->deadline_ms, 125.0);
  EXPECT_EQ(request->a.get(), m.get());
}

TEST(RequestBuilderTest, RejectsIncompleteRequests) {
  const auto m = SharedSkewed(64, 16, 3);
  EXPECT_EQ(RequestBuilder().OperandA(m).Build().status().code(),
            StatusCode::kInvalidArgument);  // no id
  EXPECT_EQ(RequestBuilder().Id("r").Build().status().code(),
            StatusCode::kInvalidArgument);  // no A matrix
  EXPECT_EQ(RequestBuilder().Id("r").OperandA(m).Algorithm("").Build()
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // empty algorithm
}

TEST(RequestBuilderTest, NegativeDeadlineNormalizesToInherit) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request =
      RequestBuilder().Id("r").OperandA(m).DeadlineMs(-5.0).Build();
  ASSERT_TRUE(request.ok());
  EXPECT_DOUBLE_EQ(request->deadline_ms, Request::kInheritDeadline);
}

TEST(RequestApiTest, ExecuteRejectsWrongSchemaVersion) {
  const auto m = SharedSkewed(64, 16, 3);
  auto request = RequestBuilder().Id("r").OperandA(m).Build();
  ASSERT_TRUE(request.ok());
  request->schema_version = 99;
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute({*request});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- batch runner

/// Disarms the process-wide fault injector when a test exits, even on
/// assertion failure.
class InjectorGuard {
 public:
  InjectorGuard() { verify::FaultInjector::Global().Reset(); }
  ~InjectorGuard() { verify::FaultInjector::Global().Reset(); }
};

/// Arms spgemm.simulate with a failure window no test reaches, so the
/// injector counts SimulatePlan calls without failing any.
void CountSimulations() {
  verify::FaultInjector::Global().Arm(verify::kSiteSimulate,
                                      /*first=*/int64_t{1} << 40);
}

int64_t Simulations() {
  return verify::FaultInjector::Global().CallCount(verify::kSiteSimulate);
}

Request SingleRequest(const std::shared_ptr<const CsrMatrix>& m,
                      const std::string& id,
                      const std::string& algorithm = "reorganizer") {
  auto request = RequestBuilder().Id(id).Algorithm(algorithm).OperandA(m)
                     .Build();
  SPNET_CHECK(request.ok()) << request.status().ToString();
  return std::move(request).value();
}

/// `n` requests "q0".."q<n-1>" for C = m^2 on `algorithm`.
std::vector<Request> RepeatedRequests(const std::shared_ptr<const CsrMatrix>& m,
                                      int n, const std::string& algorithm) {
  std::vector<Request> requests;
  for (int i = 0; i < n; ++i) {
    requests.push_back(SingleRequest(m, "q" + std::to_string(i), algorithm));
  }
  return requests;
}

void ExpectSameMeasurement(const Response& r, const Response& expected) {
  // Exact equality: a memoized hit must return the very bits a fresh
  // simulation produces.
  EXPECT_EQ(r.sim_ms, expected.sim_ms);
  EXPECT_EQ(r.gflops, expected.gflops);
  EXPECT_EQ(r.flops, expected.flops);
  EXPECT_EQ(r.output_nnz, expected.output_nnz);
}

TEST(BatchRunnerTest, CacheHitShortCircuitsPlanning) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchOptions options;
  options.plan_cache_capacity = 8;
  BatchRunner runner(options);
  spgemm::ExecContext ctx;

  auto report = runner.Execute(RepeatedRequests(m, 4, "reorganizer"), &ctx);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->succeeded, 4);
  EXPECT_EQ(report->failed, 0);
  // Concurrent identical queries may race the first insert, so the exact
  // hit/miss split is not deterministic — but every query either hit or
  // missed, and at least one miss planned the structure.
  EXPECT_EQ(report->plan_cache_hits + report->plan_cache_misses, 4);
  EXPECT_GE(report->plan_cache_misses, 1);
  for (const Response& r : report->responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.algorithm_used, "reorganizer");
    EXPECT_FALSE(r.fallback_used);
    // Planning is deterministic, so hit or miss the simulation agrees.
    EXPECT_DOUBLE_EQ(r.sim_ms, report->responses[0].sim_ms);
  }

  // A second (warm) batch short-circuits planning on every query.
  auto warm = runner.Execute(RepeatedRequests(m, 4, "reorganizer"), &ctx);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->plan_cache_misses, 0);
  EXPECT_EQ(warm->plan_cache_hits, 4);
  for (const Response& r : warm->responses) {
    EXPECT_TRUE(r.plan_cache_hit);
    EXPECT_DOUBLE_EQ(r.sim_ms, report->responses[0].sim_ms);
  }

  // The counters surfaced through the ExecContext registry too.
  const auto snapshot = ctx.registry.Snapshot();
  EXPECT_GE(snapshot.at("engine.plan_cache.hit"), 4);
  EXPECT_GE(snapshot.at("engine.plan_cache.miss"), 1);
}

TEST(BatchRunnerTest, CachedResultsAgreeWithUncached) {
  const auto m = SharedSkewed(150, 48, 5);
  BatchOptions cached_options;
  cached_options.plan_cache_capacity = 8;
  BatchRunner cached(cached_options);
  BatchOptions uncached_options;
  uncached_options.plan_cache_capacity = 0;
  BatchRunner uncached(uncached_options);

  auto a = cached.Execute(RepeatedRequests(m, 3, "reorganizer"));
  InjectorGuard guard;
  CountSimulations();
  auto b = uncached.Execute(RepeatedRequests(m, 3, "reorganizer"));
  auto b_again = uncached.Execute(RepeatedRequests(m, 3, "reorganizer"));
  ASSERT_TRUE(a.ok() && b.ok() && b_again.ok());
  EXPECT_EQ(b->plan_cache_hits, 0);
  EXPECT_EQ(b_again->plan_cache_hits, 0);
  // A plan the cache does not keep is simulated exactly once per request.
  EXPECT_EQ(Simulations(), 6);
  for (size_t i = 0; i < a->responses.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->responses[i].sim_ms, b->responses[i].sim_ms);
    EXPECT_EQ(a->responses[i].flops, b->responses[i].flops);
    EXPECT_EQ(a->responses[i].output_nnz, b->responses[i].output_nnz);
  }
}

/// 16 requests over two fresh, never-hashed operands: A², A·B, B·A and B²
/// on the reorganizer and row-product.
std::vector<Request> TwoOperandBatch() {
  const auto a = SharedSkewed(200, 64, 3);
  const auto b = SharedSkewed(200, 48, 5);
  std::vector<Request> requests;
  for (int i = 0; i < 16; ++i) {
    const bool a_first = i % 4 < 2;
    const bool square = i % 2 == 0;
    const auto& lhs = a_first ? a : b;
    const auto& rhs = square ? lhs : (a_first ? b : a);
    auto request = RequestBuilder()
                       .Id("q" + std::to_string(i))
                       .Algorithm(i % 8 < 4 ? "reorganizer" : "row-product")
                       .OperandA(lhs)
                       .OperandB(rhs)
                       .Build();
    SPNET_CHECK(request.ok()) << request.status().ToString();
    requests.push_back(std::move(request).value());
  }
  return requests;
}

TEST(BatchRunnerTest, FourThreadsAnswerLikeOne) {
  SetGlobalThreadCount(1);
  auto serial = BatchRunner(BatchOptions{}).Execute(TwoOperandBatch());
  SetGlobalThreadCount(4);
  auto parallel = BatchRunner(BatchOptions{}).Execute(TwoOperandBatch());
  SetGlobalThreadCount(0);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(parallel->responses.size(), serial->responses.size());
  EXPECT_EQ(parallel->succeeded, 16);
  for (size_t i = 0; i < serial->responses.size(); ++i) {
    const Response& got = parallel->responses[i];
    const Response& want = serial->responses[i];
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.algorithm_used, want.algorithm_used);
    ExpectSameMeasurement(got, want);
  }
}

TEST(BatchRunnerTest, DeadlineExpiryIsPerQuery) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchRunner runner(BatchOptions{});

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  // Sub-microsecond budget: expires at the first deadline check. The other
  // query keeps its default (no deadline) and must be unaffected.
  requests[0].deadline_ms = 1e-6;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deadline_expired, 1);
  EXPECT_EQ(report->succeeded, 1);
  EXPECT_EQ(report->failed, 0);
  EXPECT_EQ(report->responses[0].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report->responses[1].status.ok());
  EXPECT_GT(report->responses[1].sim_ms, 0.0);
}

TEST(BatchRunnerTest, ZeroDeadlineIsBornExpired) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchRunner runner(BatchOptions{});

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  // 0 is an explicit already-expired budget, not "no deadline".
  requests[0].deadline_ms = 0.0;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->deadline_expired, 1);
  EXPECT_EQ(report->responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report->responses[0].sim_ms, 0.0);  // expired before any work
  EXPECT_TRUE(report->responses[1].status.ok());
}

TEST(BatchRunnerTest, DefaultDeadlineIsInheritedNotOverridden) {
  const auto m = SharedSkewed(200, 64, 3);
  BatchOptions options;
  options.default_deadline_ms = 1e-6;  // expires at the first check
  BatchRunner runner(options);

  std::vector<Request> requests = RepeatedRequests(m, 2, "reorganizer");
  EXPECT_EQ(requests[0].deadline_ms, Request::kInheritDeadline);
  // An explicit per-query budget beats the batch default.
  requests[1].deadline_ms = 1e9;

  auto report = runner.Execute(requests);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->responses[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report->responses[1].status.ok());
}

TEST(BatchRunnerTest, HitResponseIsBitEqualToMissAndDirectSimulation) {
  const auto m = SharedSkewed(200, 64, 3);
  const BatchOptions options;
  BatchRunner runner(options);
  auto miss = runner.Execute({SingleRequest(m, "miss")});
  auto hit = runner.Execute({SingleRequest(m, "hit")});
  ASSERT_TRUE(miss.ok() && hit.ok());
  ASSERT_TRUE(miss->responses[0].status.ok());
  ASSERT_TRUE(hit->responses[0].status.ok());
  EXPECT_FALSE(miss->responses[0].plan_cache_hit);
  EXPECT_TRUE(hit->responses[0].plan_cache_hit);
  ExpectSameMeasurement(hit->responses[0], miss->responses[0]);

  auto algorithm = core::MakeBlockReorganizer(options.reorganizer_config);
  ASSERT_TRUE(algorithm.ok());
  auto plan = (*algorithm)->Plan(*m, *m, options.device);
  ASSERT_TRUE(plan.ok());
  auto direct = spgemm::SimulatePlan(*plan, options.device);
  ASSERT_TRUE(direct.ok());
  Response expected;
  expected.sim_ms = direct->total_seconds * 1e3;
  expected.gflops = direct->Gflops();
  expected.flops = direct->flops;
  expected.output_nnz = direct->output_nnz;
  ExpectSameMeasurement(hit->responses[0], expected);
}

TEST(BatchRunnerTest, AnswerFromCacheAnswersOnlyMeasuredHits) {
  const auto m = SharedSkewed(200, 64, 3);
  const BatchOptions options;
  BatchRunner runner(options);
  PlanCache& cache = runner.plan_cache();
  const uint64_t config_fp = options.reorganizer_config.Fingerprint();
  const auto answer = [&](const Request& request, Response* response) {
    return AnswerFromCache(request, options, config_fp, cache, Timer(),
                           nullptr, response);
  };

  // Cold: nothing to answer from, and no lookup counted.
  Response cold;
  EXPECT_FALSE(answer(SingleRequest(m, "q"), &cold));
  EXPECT_EQ(cache.hits() + cache.misses(), 0);

  auto miss = runner.Execute({SingleRequest(m, "q")});
  auto hit = runner.Execute({SingleRequest(m, "q")});
  ASSERT_TRUE(miss.ok() && hit.ok());
  ASSERT_TRUE(hit->responses[0].plan_cache_hit);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);

  Response warm;
  ASSERT_TRUE(answer(SingleRequest(m, "q"), &warm));
  EXPECT_EQ(cache.hits(), 2);
  const Response& want = hit->responses[0];
  EXPECT_TRUE(warm.status.ok());
  EXPECT_EQ(warm.id, want.id);
  EXPECT_EQ(warm.tenant, want.tenant);
  EXPECT_EQ(warm.algorithm_used, want.algorithm_used);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_FALSE(warm.fallback_used);
  ExpectSameMeasurement(warm, want);

  // Another algorithm's key, or one no algorithm is built under, is not
  // answered.
  Response other;
  EXPECT_FALSE(answer(SingleRequest(m, "q", "row-product"), &other));
  EXPECT_FALSE(answer(SingleRequest(m, "q", "no-such-algorithm"), &other));
  EXPECT_EQ(cache.hits() + cache.misses(), 3);

  // An expired deadline wins over the cached measurement.
  Request expired = SingleRequest(m, "late");
  expired.deadline_ms = 0.0;
  Response late;
  ASSERT_TRUE(answer(expired, &late));
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(late.plan_cache_hit);
  EXPECT_EQ(late.id, "late");
  EXPECT_EQ(cache.hits() + cache.misses(), 3);
}

TEST(BatchRunnerTest, HitsOnMeasuredEntriesDoNotSimulate) {
  InjectorGuard guard;
  const auto warm = SharedSkewed(200, 64, 3);
  const auto cold = SharedSkewed(200, 64, 4);
  BatchRunner runner(BatchOptions{});
  auto warmup = runner.Execute({SingleRequest(warm, "warmup")});
  ASSERT_TRUE(warmup.ok() && warmup->succeeded == 1);

  // Every SimulatePlan call now fails, so a hit that simulated would fail.
  verify::FaultInjector::Global().Arm(verify::kSiteSimulate, /*first=*/1,
                                      /*count=*/0);
  std::vector<Request> hits;
  for (int i = 0; i < 5; ++i) {
    hits.push_back(SingleRequest(warm, "hit" + std::to_string(i)));
  }
  auto hit_report = runner.Execute(hits);
  ASSERT_TRUE(hit_report.ok());
  EXPECT_EQ(hit_report->succeeded, 5);
  EXPECT_EQ(hit_report->plan_cache_hits, 5);
  EXPECT_EQ(Simulations(), 0);
  for (const Response& r : hit_report->responses) {
    ExpectSameMeasurement(r, warmup->responses[0]);
  }

  // One miss simulates exactly once, and the injected failure surfaces.
  auto miss_report = runner.Execute({SingleRequest(cold, "miss")});
  ASSERT_TRUE(miss_report.ok());
  EXPECT_EQ(miss_report->plan_cache_misses, 1);
  EXPECT_EQ(Simulations(), 1);
  EXPECT_EQ(miss_report->failed, 1);
  EXPECT_EQ(miss_report->responses[0].status.code(), StatusCode::kInternal);
}

TEST(BatchRunnerTest, PlanOnlyEntryStillSimulatesOnHit) {
  InjectorGuard guard;
  const auto m = SharedSkewed(150, 48, 5);
  auto cache = std::make_shared<PlanCache>(8);
  BatchOptions options;
  options.shared_plan_cache = cache;
  BatchRunner runner(options);

  auto algorithm = spgemm::AlgorithmRegistry::Global().Create("row-product");
  ASSERT_TRUE(algorithm.ok());
  auto plan = (*algorithm)->Plan(*m, *m, options.device);
  ASSERT_TRUE(plan.ok());
  auto direct = spgemm::SimulatePlan(*plan, options.device);
  ASSERT_TRUE(direct.ok());
  const uint64_t fp = StructuralFingerprint(*m);
  cache->Insert(PlanKey{fp, fp, "row-product", 0}, std::move(plan).value());

  CountSimulations();
  auto report = runner.Execute({SingleRequest(m, "q", "row-product")});
  ASSERT_TRUE(report.ok());
  const Response& r = report->responses[0];
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.plan_cache_hit);
  EXPECT_EQ(Simulations(), 1);
  EXPECT_EQ(r.sim_ms, direct->total_seconds * 1e3);
  EXPECT_EQ(r.flops, direct->flops);
  EXPECT_EQ(r.output_nnz, direct->output_nnz);
}

TEST(BatchRunnerTest, SharedCacheOfAnotherDeviceIsInvalidArgument) {
  const auto m = SharedSkewed(64, 16, 3);
  BatchOptions options;
  options.device = gpusim::DeviceSpec::TeslaV100();
  options.shared_plan_cache =
      std::make_shared<PlanCache>(8, 1, gpusim::DeviceSpec::TitanXp());
  BatchRunner runner(options);
  auto report = runner.Execute({SingleRequest(m, "q")});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(options.shared_plan_cache->size(), 0u);

  // A runner that owns its cache binds it to its own device.
  BatchOptions owned;
  owned.device = gpusim::DeviceSpec::TeslaV100();
  BatchRunner owner(owned);
  EXPECT_EQ(owner.plan_cache().device(), gpusim::DeviceSpec::TeslaV100());
  EXPECT_TRUE(owner.Execute({SingleRequest(m, "q")}).ok());
}

TEST(BatchRunnerTest, InvalidReorganizerConfigFallsBackToBaseline) {
  const auto m = SharedSkewed(150, 48, 5);
  BatchOptions options;
  options.reorganizer_config.alpha = -1.0;  // MakeBlockReorganizer refuses
  options.fallback_algorithm = "outer-product";
  BatchRunner runner(options);
  spgemm::ExecContext ctx;

  auto report = runner.Execute(RepeatedRequests(m, 2, "reorganizer"), &ctx);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->succeeded, 2);
  EXPECT_EQ(report->fallbacks, 2);
  for (const Response& r : report->responses) {
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.fallback_used);
    EXPECT_EQ(r.algorithm_used, "outer-product");
    EXPECT_GT(r.sim_ms, 0.0);
  }
  EXPECT_EQ(ctx.registry.Snapshot().at("engine.batch.fallback"), 2);
}

TEST(BatchRunnerTest, UnknownAlgorithmFallsBackToBaseline) {
  const auto m = SharedSkewed(100, 32, 9);
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute(RepeatedRequests(m, 1, "no-such-algorithm"));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->responses.size(), 1u);
  EXPECT_TRUE(report->responses[0].status.ok());
  EXPECT_TRUE(report->responses[0].fallback_used);
  EXPECT_EQ(report->responses[0].algorithm_used, "outer-product");
}

TEST(BatchRunnerTest, UnbuildableFallbackFailsTheRun) {
  const auto m = SharedSkewed(100, 32, 9);
  BatchOptions options;
  options.fallback_algorithm = "no-such-algorithm";
  BatchRunner runner(options);
  auto report = runner.Execute(RepeatedRequests(m, 1, "reorganizer"));
  EXPECT_FALSE(report.ok());
}

TEST(BatchRunnerTest, EmptyBatchIsOk) {
  BatchRunner runner(BatchOptions{});
  auto report = runner.Execute({});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->responses.empty());
  EXPECT_EQ(report->succeeded, 0);
}

TEST(BatchRunnerTest, MissingMatrixIsInvalidArgument) {
  BatchRunner runner(BatchOptions{});
  Request request;  // RequestBuilder refuses a missing A; Execute must too.
  request.id = "no-matrix";
  auto report = runner.Execute({request});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- manifest

TEST(ManifestTest, ParsesEntriesCommentsAndRepeats) {
  auto entries = ParseManifest(
      "# production-ish mix\n"
      "as-caida reorganizer 3\n"
      "\n"
      "emailEnron row-product   # inline comment\n"
      "graphs/web.mtx\n");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].source, "as-caida");
  EXPECT_EQ((*entries)[0].algorithm, "reorganizer");
  EXPECT_EQ((*entries)[0].repeat, 3);
  EXPECT_EQ((*entries)[1].algorithm, "row-product");
  EXPECT_EQ((*entries)[1].repeat, 1);
  EXPECT_EQ((*entries)[2].source, "graphs/web.mtx");
  EXPECT_EQ((*entries)[2].algorithm, "reorganizer");
}

TEST(ManifestTest, StripsTrailingCarriageReturns) {
  // Windows-edited manifests carry \r\n line endings; the \r must not
  // stick to the last token of each line.
  auto entries = ParseManifest(
      "as-caida reorganizer 3\r\n"
      "emailEnron row-product\r\n"
      "graphs/web.mtx\r\n");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].repeat, 3);
  EXPECT_EQ((*entries)[1].algorithm, "row-product");
  EXPECT_EQ((*entries)[2].source, "graphs/web.mtx");
}

TEST(ManifestTest, RejectsMalformedRepeat) {
  EXPECT_FALSE(ParseManifest("as-caida reorganizer zero\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer 0\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer -2\n").ok());
  EXPECT_FALSE(ParseManifest("as-caida reorganizer 2 extra\n").ok());
}

TEST(ManifestTest, BuildRequestsSharesRepeatedSources) {
  std::vector<ManifestEntry> entries;
  entries.push_back({"as-caida", "reorganizer", 2});
  entries.push_back({"as-caida", "row-product", 1});
  ManifestLoadOptions options;
  options.scale = 0.05;
  auto requests = BuildRequests(entries, options);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  ASSERT_EQ(requests->size(), 3u);
  // One load, shared by all three requests.
  EXPECT_EQ((*requests)[0].a.get(), (*requests)[1].a.get());
  EXPECT_EQ((*requests)[0].a.get(), (*requests)[2].a.get());
  EXPECT_EQ((*requests)[0].id, "as-caida:reorganizer#0");
  EXPECT_EQ((*requests)[2].algorithm, "row-product");
}

TEST(ManifestTest, MissingSourceFailsBuild) {
  std::vector<ManifestEntry> entries;
  entries.push_back({"no-such-dataset", "reorganizer", 1});
  auto requests = BuildRequests(entries, ManifestLoadOptions{});
  EXPECT_FALSE(requests.ok());
}

}  // namespace
}  // namespace engine
}  // namespace spnet
