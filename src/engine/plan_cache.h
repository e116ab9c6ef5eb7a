#ifndef SPNET_ENGINE_PLAN_CACHE_H_
#define SPNET_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "gpusim/device_spec.h"
#include "spgemm/exec_context.h"
#include "spgemm/plan.h"

namespace spnet {
namespace engine {

/// Identity of one planning problem: the structural fingerprints of both
/// operands (sparse::StructuralFingerprint — values excluded, structure
/// only), the algorithm name, and the fingerprint of the algorithm's
/// configuration (ReorganizerConfig::Fingerprint for the reorganizer, 0 for
/// the config-free baselines). Plans and their memoized measurements also
/// depend on the DeviceSpec, which is deliberately not part of the key:
/// each PlanCache records the one device it serves (PlanCache::device),
/// and BatchRunner::Execute refuses a shared cache built for another
/// device, because a hit would otherwise return another device's plan and
/// simulated time.
struct PlanKey {
  uint64_t fp_a = 0;
  uint64_t fp_b = 0;
  std::string algorithm;
  uint64_t config_fp = 0;

  friend bool operator==(const PlanKey& x, const PlanKey& y) {
    return x.fp_a == y.fp_a && x.fp_b == y.fp_b &&
           x.config_fp == y.config_fp && x.algorithm == y.algorithm;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const;
};

/// One cache entry as the cache hands it out: the plan, and the plan's
/// measurement on the cache's device when the inserter simulated it.
struct CachedPlan {
  /// Null on a miss.
  std::shared_ptr<const spgemm::SpGemmPlan> plan;
  /// Null on a miss and for entries inserted plan-only.
  std::shared_ptr<const spgemm::SpGemmMeasurement> measurement;
};

/// Thread-safe LRU cache of SpGemmPlan results for one device. Repeated
/// queries over the same matrix structure skip the whole Block Reorganizer
/// planning pipeline (classification, B-Splitting, B-Gathering,
/// B-Limiting) — the amortizable cost that dominates spGEMM latency on
/// power-law graphs. Simulation is a pure function of (plan, device), so
/// an entry may also memoize its plan's SpGemmMeasurement: a hit on such
/// an entry skips simulation too and costs only the lookup.
///
/// Sharding: the capacity can be split across `shards` independent LRU
/// shards, each with its own mutex, selected by the key's hash. Under
/// concurrent tenants every shard serializes only 1/N of the traffic, so
/// lock contention shrinks with the shard count while the external
/// interface — and the hit/miss/eviction accounting — stays exactly that
/// of one logical cache. The counters are process-global atomics
/// aggregated across shards, and the engine.plan_cache.{hit,miss,evict}
/// counters recorded on an ExecContext likewise sum over all shards, so
/// existing consumers (BatchReport deltas, BENCH_engine_batch.json,
/// engine_test) read identical semantics whatever the shard count.
/// Recency is per shard: eviction removes the least-recently-used entry of
/// the full shard, which approximates global LRU the way any sharded cache
/// does. The default of one shard preserves exact global LRU order.
///
/// Plans and measurements are shared immutably (shared_ptr to const), so a
/// hit is one map lookup plus refcount bumps and entries stay valid even
/// if evicted while a query is still using them.
///
/// Observability: every Lookup/Insert optionally records
/// engine.plan_cache.{hit,miss,evict} counters on an ExecContext; the same
/// totals are always available from hits()/misses()/evictions() (used by
/// tests and the CLI summary line).
class PlanCache {
 public:
  /// `capacity` is the max number of cached plans across all shards; 0
  /// disables caching (every Lookup misses, Insert is a no-op). `shards`
  /// is clamped to [1, capacity] so every shard owns at least one entry;
  /// the per-shard capacity is capacity/shards with the remainder spread
  /// over the first shards. `min_confidence` is the admission floor for
  /// plan confidence: plans built from low-confidence estimates (see
  /// SpGemmPlan::confidence) are returned to the caller but never cached,
  /// so a lucky sample cannot become every future query's plan. 0.0
  /// admits everything. `device` is the device every cached plan and
  /// measurement was built for.
  explicit PlanCache(size_t capacity, size_t shards = 1,
                     double min_confidence = 0.0,
                     gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp());

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached entry and refreshes its recency, or an entry with
  /// a null plan on a miss.
  CachedPlan Find(const PlanKey& key, spgemm::ExecContext* ctx = nullptr);

  /// Find's plan alone: the cached plan, or nullptr on a miss.
  std::shared_ptr<const spgemm::SpGemmPlan> Lookup(
      const PlanKey& key, spgemm::ExecContext* ctx = nullptr) {
    return Find(key, ctx).plan;
  }

  /// Inserts (or replaces) the entry for `key` with `plan` and its
  /// `measurement` on device(), evicting the shard's least-recently-used
  /// entry when the shard is full. Returns the shared form of both, also
  /// when the plan is refused admission.
  CachedPlan Insert(const PlanKey& key, spgemm::SpGemmPlan plan,
                    spgemm::SpGemmMeasurement measurement,
                    spgemm::ExecContext* ctx = nullptr);

  /// Inserts a plan-only entry: a hit on it still has to simulate. Returns
  /// the shared form of the plan.
  std::shared_ptr<const spgemm::SpGemmPlan> Insert(
      const PlanKey& key, spgemm::SpGemmPlan plan,
      spgemm::ExecContext* ctx = nullptr);

  void Clear();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  /// Entries currently cached, summed over all shards.
  size_t size() const;

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Inserts refused because the plan's confidence was below the floor.
  int64_t rejected_low_confidence() const {
    return rejected_low_confidence_.load(std::memory_order_relaxed);
  }
  double min_confidence() const { return min_confidence_; }
  const gpusim::DeviceSpec& device() const { return device_; }

 private:
  using Entry = std::pair<PlanKey, CachedPlan>;

  /// One independent LRU cache; selected by key hash.
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap) {}
    const size_t capacity;
    Mutex mu;
    /// Most recently used at the front; eviction pops the back.
    std::list<Entry> lru GUARDED_BY(mu);
    std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash>
        index GUARDED_BY(mu);
  };

  Shard& ShardFor(const PlanKey& key);

  /// Admission, replacement and eviction shared by both Insert forms.
  void Admit(const PlanKey& key, const CachedPlan& entry,
             spgemm::ExecContext* ctx);

  const size_t capacity_;
  const double min_confidence_;
  const gpusim::DeviceSpec device_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> rejected_low_confidence_{0};
};

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_PLAN_CACHE_H_
