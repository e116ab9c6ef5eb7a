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
/// the config-free baselines). Cached measurements also depend on the
/// DeviceSpec, which is deliberately not part of the key: each PlanCache
/// records the one device it serves (PlanCache::device), and
/// BatchRunner::Execute refuses a shared cache built for another device,
/// because a hit would otherwise return another device's simulated time.
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

/// Thread-safe LRU cache of planning answers for one device. Repeated
/// queries over the same matrix structure skip the whole Block Reorganizer
/// planning pipeline (classification, B-Splitting, B-Gathering,
/// B-Limiting) and the simulation after it: simulation is a pure function
/// of (plan, device), so an entry keeps only the plan's SpGemmMeasurement,
/// and the plan, whose block descriptors are most of its bytes, is freed
/// with the request that built it.
///
/// Sharding: the capacity can be split across `shards` independent LRU
/// shards, each with its own mutex, selected by the key's hash. Under
/// concurrent tenants every shard serializes only 1/N of the traffic, so
/// lock contention shrinks with the shard count while the external
/// interface — and the hit/miss/eviction accounting — stays exactly that
/// of one logical cache. The counters are process-global atomics
/// aggregated across shards, and the engine.plan_cache.{hit,miss,evict}
/// counters recorded on an ExecContext likewise sum over all shards, so
/// existing consumers (ExecutionReport deltas, the serve stats document,
/// engine_test) read identical semantics whatever the shard count.
/// Recency is per shard: eviction removes the least-recently-used entry of
/// the full shard, which approximates global LRU the way any sharded cache
/// does. The default of one shard preserves exact global LRU order.
///
/// Entries are shared immutably (shared_ptr to const), so a hit is one map
/// lookup plus refcount bumps and entries stay valid even if evicted while
/// a query is still using them.
///
/// Observability: every lookup and insert optionally records
/// engine.plan_cache.{hit,miss,evict} counters on an ExecContext; the same
/// totals are always available from hits()/misses()/evictions() (used by
/// tests and the CLI summary line).
class PlanCache {
 public:
  /// `capacity` is the max number of cached entries across all shards; 0
  /// disables caching (every lookup misses, Insert is a no-op). `shards`
  /// is clamped to [1, capacity] so every shard owns at least one entry;
  /// the per-shard capacity is capacity/shards with the remainder spread
  /// over the first shards. `device` is the device every cached
  /// measurement was taken on.
  explicit PlanCache(size_t capacity, size_t shards = 1,
                     gpusim::DeviceSpec device = gpusim::DeviceSpec::TitanXp());

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The measurement cached for `key`, counted as a hit and refreshed to
  /// most-recently-used; nullptr, counted as a miss, when there is none. A
  /// plan-only entry answers nothing, so it counts as a miss too.
  std::shared_ptr<const spgemm::SpGemmMeasurement> Find(
      const PlanKey& key, spgemm::ExecContext* ctx = nullptr);

  /// Find that counts nothing when it finds no measurement, so a caller
  /// that falls back to Find still counts one lookup.
  std::shared_ptr<const spgemm::SpGemmMeasurement> FindMeasured(
      const PlanKey& key, spgemm::ExecContext* ctx = nullptr);

  /// Inserts (or replaces) the measured entry for `key`: the `measurement`
  /// of its plan on device(). Evicts the shard's least-recently-used entry
  /// when the shard is full.
  void Insert(const PlanKey& key, spgemm::SpGemmMeasurement measurement,
              spgemm::ExecContext* ctx = nullptr);

  /// The plan of a plan-only entry, counted as a hit, or nullptr, counted
  /// as a miss (a measured entry holds no plan). Kept only for perfbench's
  /// traced serve replay; it goes when that replay moves to Find (ROADMAP
  /// item 6).
  std::shared_ptr<const spgemm::SpGemmPlan> Lookup(
      const PlanKey& key, spgemm::ExecContext* ctx = nullptr);

  /// Inserts (or replaces) a plan-only entry and returns the shared plan,
  /// also when caching is disabled. Kept only for perfbench's traced serve
  /// replay, like Lookup; the engine never makes such entries.
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
  const gpusim::DeviceSpec& device() const { return device_; }

 private:
  /// A measured entry holds only its measurement; a plan-only entry, made
  /// only by the replay's Insert, holds only its plan.
  struct Value {
    std::shared_ptr<const spgemm::SpGemmMeasurement> measurement;
    std::shared_ptr<const spgemm::SpGemmPlan> plan;
  };
  using Entry = std::pair<PlanKey, Value>;

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

  /// The entry for `key` when it holds what the caller reads (its plan
  /// with `want_plan`, else its measurement), counted as a hit and moved to
  /// most-recently-used; an empty value, counted as nothing, otherwise.
  Value Probe(const PlanKey& key, bool want_plan, spgemm::ExecContext* ctx);
  void CountMiss(spgemm::ExecContext* ctx);

  /// Replacement and eviction shared by both Insert forms.
  void Admit(const PlanKey& key, const Value& value,
             spgemm::ExecContext* ctx);

  const size_t capacity_;
  const gpusim::DeviceSpec device_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace engine
}  // namespace spnet

#endif  // SPNET_ENGINE_PLAN_CACHE_H_
