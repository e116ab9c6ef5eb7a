#include "engine/plan_cache.h"

#include <utility>

#include "sparse/fingerprint.h"

namespace spnet {
namespace engine {

size_t PlanKeyHash::operator()(const PlanKey& k) const {
  uint64_t h = sparse::CombineFingerprints(k.fp_a, k.fp_b);
  h = sparse::CombineFingerprints(h, k.config_fp);
  for (unsigned char c : k.algorithm) {
    h = sparse::CombineFingerprints(h, c);
  }
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(size_t capacity, size_t shards) : capacity_(capacity) {
  if (shards < 1) shards = 1;
  if (capacity > 0 && shards > capacity) shards = capacity;
  if (capacity == 0) shards = 1;  // a single empty shard keeps paths uniform
  shards_.reserve(shards);
  const size_t base = capacity / shards;
  const size_t remainder = capacity % shards;
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
  }
}

PlanCache::Shard& PlanCache::ShardFor(const PlanKey& key) {
  // Reuse the index hash; the shard pick must be stable per key so a key
  // always lands in the same shard.
  return *shards_[PlanKeyHash{}(key) % shards_.size()];
}

PlanCache::Value PlanCache::Probe(const PlanKey& key, bool want_plan,
                                  spgemm::ExecContext* ctx) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return {};
  const Value& value = it->second->second;
  if (want_plan ? value.plan == nullptr : value.measurement == nullptr) {
    return {};
  }
  // Refresh recency: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  spgemm::AddCounter(ctx, "engine.plan_cache.hit", 1);
  return value;
}

void PlanCache::CountMiss(spgemm::ExecContext* ctx) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  spgemm::AddCounter(ctx, "engine.plan_cache.miss", 1);
}

std::shared_ptr<const spgemm::SpGemmMeasurement> PlanCache::Find(
    const PlanKey& key, spgemm::ExecContext* ctx) {
  auto measurement = FindMeasured(key, ctx);
  if (measurement == nullptr) CountMiss(ctx);
  return measurement;
}

std::shared_ptr<const spgemm::SpGemmMeasurement> PlanCache::FindMeasured(
    const PlanKey& key, spgemm::ExecContext* ctx) {
  return Probe(key, /*want_plan=*/false, ctx).measurement;
}

void PlanCache::Insert(const PlanKey& key,
                       spgemm::SpGemmMeasurement measurement,
                       spgemm::ExecContext* ctx) {
  Admit(key,
        {std::make_shared<const spgemm::SpGemmMeasurement>(
             std::move(measurement)),
         nullptr},
        ctx);
}

std::shared_ptr<const spgemm::SpGemmPlan> PlanCache::Lookup(
    const PlanKey& key, spgemm::ExecContext* ctx) {
  auto plan = Probe(key, /*want_plan=*/true, ctx).plan;
  if (plan == nullptr) CountMiss(ctx);
  return plan;
}

std::shared_ptr<const spgemm::SpGemmPlan> PlanCache::Insert(
    const PlanKey& key, spgemm::SpGemmPlan plan, spgemm::ExecContext* ctx) {
  Value value{nullptr,
              std::make_shared<const spgemm::SpGemmPlan>(std::move(plan))};
  Admit(key, value, ctx);
  return value.plan;
}

void PlanCache::Admit(const PlanKey& key, const Value& value,
                      spgemm::ExecContext* ctx) {
  if (capacity_ == 0) return;
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent planners can race to insert the same key; keep the newer
    // entry (the answers are equal) and refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->second = value;
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    spgemm::AddCounter(ctx, "engine.plan_cache.evict", 1);
  }
  shard.lru.emplace_front(key, value);
  shard.index.emplace(key, shard.lru.begin());
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace engine
}  // namespace spnet
