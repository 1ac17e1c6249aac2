#ifndef GRIDVINE_QUERY_STATS_STATS_CACHE_H_
#define GRIDVINE_QUERY_STATS_STATS_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "query/stats/sketch.h"

namespace gridvine {

/// Issuer-side cache of remote statistics, one entry per key region the
/// issuer has planned against. Entries carry the simulated time they were
/// fetched and expire after `ttl` (bounded staleness: a refreshed region is
/// re-fetched lazily by the next query that routes there, not pushed).
///
/// Region keys are opaque strings (the overlay key's serialization), keeping
/// this layer free of any overlay dependency — symmetric with ExtentCache.
///
/// The cache also holds per-pattern *observed* cardinalities fed back by the
/// executor after each query: an observation is ground truth for the exact
/// pattern it was measured on, so it overrides the sketch estimate until it
/// expires on the same TTL.
class StatsCache {
 public:
  struct Options {
    /// Staleness bound, simulated seconds.
    double ttl = 60.0;
  };
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;   ///< absent or expired on lookup
    uint64_t refreshes = 0;
    uint64_t observations = 0;
  };

  StatsCache() = default;
  explicit StatsCache(Options options) : options_(options) {}

  /// The region's sketch if present and fresh at `now`, else nullptr (an
  /// expired entry is dropped). Valid until the next non-const call.
  const StoreSketch* Lookup(const std::string& region, double now);

  /// True without perturbing hit/miss accounting (the prefetch planner asks
  /// "do I need to fetch?" before the plan-time Lookup).
  bool Fresh(const std::string& region, double now) const;

  void Put(const std::string& region, StoreSketch sketch, double now);

  /// Records the observed extent cardinality of one pattern (serialized
  /// form), overriding sketch estimates until it expires.
  void Observe(const std::string& pattern, double rows, double now);
  std::optional<double> ObservedRows(const std::string& pattern,
                                     double now) const;

  const Stats& stats() const { return stats_; }
  size_t entries() const { return sketches_.size(); }
  size_t MemoryFootprint() const;

 private:
  struct Entry {
    StoreSketch sketch;
    double fetched_at = 0;
  };
  struct Observation {
    double rows = 0;
    double at = 0;
  };

  Options options_;
  Stats stats_;
  std::map<std::string, Entry> sketches_;
  std::unordered_map<std::string, Observation> observed_;
};

}  // namespace gridvine

#endif  // GRIDVINE_QUERY_STATS_STATS_CACHE_H_
