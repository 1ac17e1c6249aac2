#ifndef GRIDVINE_QUERY_EXTENT_CACHE_H_
#define GRIDVINE_QUERY_EXTENT_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gridvine {

/// Responder-side result/extent cache for the serving layer (paper-scale
/// flash crowds hit the same reformulated patterns over and over, so the
/// peer that owns a hot key region re-matches an identical pattern — or an
/// identical bound-probe batch — thousands of times).
///
/// Keying: the pattern serialization is interned once into a small id
/// table ("interned pattern ids"), and the bound-constant signature (the
/// serialized probe batch for bind-join scans; empty for full scans) is
/// hashed next to it. Entries remember the TripleStore::version() they were
/// computed against; any insert/erase/compaction bumps the store version and
/// a stale entry is dropped on its next lookup (counted as an
/// invalidation + miss). There is no explicit invalidation hook — one
/// integer compare per lookup.
///
/// Values are wire-ready: the serialized row payload plus the probe-index
/// demultiplexing tags, so a hit skips both matching and re-serialization.
/// Replication falls out for free: every replica of a key region runs its
/// own cache over its own store copy, so an extent is served from whichever
/// replica the request lands on.
///
/// Bounded by entries and bytes with LRU eviction. Not thread-safe (lives
/// inside a peer, like everything else).
class ExtentCache {
 public:
  struct Options {
    size_t max_entries = 4096;
    size_t max_bytes = 4u << 20;
  };
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;  ///< stale-version drops (also counted as misses)
    /// Hits whose cached extent is empty (row_count == 0) — the negative
    /// cache at work: a miss-shaped answer served without touching the
    /// store. Subset of `hits`.
    uint64_t negative_hits = 0;
  };
  /// A cached answer, exactly as it goes on the wire.
  struct Extent {
    std::string rows;                   ///< serialized bindings payload (may be "")
    std::vector<uint32_t> probe_index;  ///< per-row demux tags; empty for scans
    uint64_t row_count = 0;
  };

  ExtentCache() = default;
  explicit ExtentCache(Options options) : options_(options) {}

  /// Returns the cached extent for (pattern, probes) if present and computed
  /// at exactly `store_version`, else nullptr. A version mismatch drops the
  /// entry. The pointer is valid until the next non-const call.
  const Extent* Lookup(std::string_view pattern, std::string_view probes,
                       uint64_t store_version);

  /// Stores an extent computed at `store_version`, replacing any previous
  /// entry for the key, then evicts LRU entries past the configured bounds.
  void Insert(std::string_view pattern, std::string_view probes,
              uint64_t store_version, Extent extent);

  void Clear();

  const Stats& stats() const { return stats_; }
  size_t entries() const { return map_.size(); }
  size_t bytes() const { return bytes_; }
  size_t MemoryFootprint() const;

 private:
  struct Entry {
    std::string probes;  ///< full signature, verified on hit (hash is 32-bit)
    uint64_t store_version = 0;
    Extent extent;
    size_t charge = 0;  ///< byte accounting for this entry
    std::list<uint64_t>::iterator lru_it;
  };

  /// (interned pattern id << 32) | fnv1a32(probes). The pattern side is
  /// exact; the probe side is verified against Entry::probes on lookup, so a
  /// 32-bit collision degrades to a miss, never a wrong answer.
  uint64_t KeyOf(std::string_view pattern, std::string_view probes);
  static size_t ChargeOf(std::string_view probes, const Extent& e);
  void EraseEntry(std::unordered_map<uint64_t, Entry>::iterator it);
  void EvictToBounds();

  Options options_;
  Stats stats_;
  std::unordered_map<std::string, uint32_t> pattern_ids_;
  std::unordered_map<uint64_t, Entry> map_;
  std::list<uint64_t> lru_;  ///< front = most recently used, holds map keys
  size_t bytes_ = 0;
};

}  // namespace gridvine

#endif  // GRIDVINE_QUERY_EXTENT_CACHE_H_
