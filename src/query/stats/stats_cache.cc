#include "query/stats/stats_cache.h"

#include "common/mem_estimate.h"

namespace gridvine {

namespace {

/// Cap on retained per-pattern observations (oldest dropped first).
constexpr size_t kMaxObserved = 4096;

}  // namespace

const StoreSketch* StatsCache::Lookup(const std::string& region, double now) {
  auto it = sketches_.find(region);
  if (it == sketches_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (now - it->second.fetched_at > options_.ttl) {
    sketches_.erase(it);
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.sketch;
}

bool StatsCache::Fresh(const std::string& region, double now) const {
  auto it = sketches_.find(region);
  return it != sketches_.end() && now - it->second.fetched_at <= options_.ttl;
}

void StatsCache::Put(const std::string& region, StoreSketch sketch,
                     double now) {
  ++stats_.refreshes;
  sketches_[region] = Entry{std::move(sketch), now};
}

void StatsCache::Observe(const std::string& pattern, double rows, double now) {
  ++stats_.observations;
  if (observed_.size() >= kMaxObserved &&
      observed_.find(pattern) == observed_.end()) {
    // Evict the stalest observation to stay bounded.
    auto oldest = observed_.begin();
    for (auto it = observed_.begin(); it != observed_.end(); ++it) {
      if (it->second.at < oldest->second.at) oldest = it;
    }
    observed_.erase(oldest);
  }
  observed_[pattern] = Observation{rows, now};
}

std::optional<double> StatsCache::ObservedRows(const std::string& pattern,
                                               double now) const {
  auto it = observed_.find(pattern);
  if (it == observed_.end() || now - it->second.at > options_.ttl) {
    return std::nullopt;
  }
  return it->second.rows;
}

size_t StatsCache::MemoryFootprint() const {
  size_t bytes = sizeof(StatsCache) + HashMapBytes(observed_);
  for (const auto& [region, entry] : sketches_) {
    bytes += region.capacity() + sizeof(Entry) +
             entry.sketch.MemoryFootprint();
  }
  for (const auto& [pattern, obs] : observed_) bytes += pattern.capacity();
  return bytes;
}

}  // namespace gridvine
