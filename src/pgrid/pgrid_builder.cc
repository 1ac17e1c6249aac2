#include "pgrid/pgrid_builder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

namespace gridvine {
namespace {

/// One peer of WireRouting's index: its path packed MSB-first (bit i of the
/// path is bit 63 - i of `head`, zero past the end), its length and id.
/// Bits past the 64th sit in PathIndex::tails from word `tail` on.
struct PackedPath {
  uint64_t head = 0;
  uint32_t len = 0;
  NodeId id = kInvalidNode;
  uint32_t tail = 0;
};

/// Packed paths ordered exactly as their '0'/'1' strings: by the
/// zero-padded bits, then by length. A proper prefix either differs from its
/// extension at a 1 past its end or ties on the padded bits and is shorter,
/// so both orders put it first.
struct PathIndex {
  std::vector<PackedPath> entries;
  std::vector<uint64_t> tails;

  static uint32_t TailWords(uint32_t len) {
    return len > 64 ? (len - 1) / 64 : 0;
  }

  /// Bits [from, from + 64) of `bits`, left-aligned and zero-padded.
  static uint64_t PackWord(const std::string& bits, size_t from) {
    uint64_t word = 0;
    const size_t end = std::min(bits.size(), from + 64);
    for (size_t i = from; i < end; ++i) {
      if (bits[i] == '1') word |= uint64_t(1) << (63 - (i - from));
    }
    return word;
  }

  void Add(const std::string& bits, NodeId id) {
    entries.push_back(PackedPath{PackWord(bits, 0), uint32_t(bits.size()), id,
                                 uint32_t(tails.size())});
    for (size_t from = 64; from < bits.size(); from += 64) {
      tails.push_back(PackWord(bits, from));
    }
  }

  bool Less(const PackedPath& a, const PackedPath& b) const {
    if (a.head != b.head) return a.head < b.head;
    const uint32_t wa = TailWords(a.len), wb = TailWords(b.len);
    for (uint32_t w = 0; w < std::max(wa, wb); ++w) {
      const uint64_t x = w < wa ? tails[a.tail + w] : 0;
      const uint64_t y = w < wb ? tails[b.tail + w] : 0;
      if (x != y) return x < y;
    }
    return a.len < b.len;
  }

  /// Bit `i` of `e`'s path; i < e.len.
  int Bit(const PackedPath& e, uint32_t i) const {
    const uint64_t word = i < 64 ? e.head : tails[e.tail + (i - 64) / 64];
    return int((word >> (63 - i % 64)) & 1);
  }
};

}  // namespace

void PGridBuilder::BuildBalanced(const std::vector<PGridPeer*>& peers,
                                 Rng* rng, int refs_per_level) {
  if (peers.empty()) return;
  size_t n = peers.size();
  int depth = 0;
  while ((size_t(1) << (depth + 1)) <= n) ++depth;
  size_t leaves = size_t(1) << depth;
  for (size_t i = 0; i < n; ++i) {
    peers[i]->SetPath(Key::FromUint(i % leaves, depth));
  }
  WireRouting(peers, rng, refs_per_level);
}

void PGridBuilder::BuildAdaptive(const std::vector<PGridPeer*>& peers,
                                 const std::vector<Key>& sample, Rng* rng,
                                 int refs_per_level) {
  if (peers.empty()) return;
  if (sample.empty()) {
    BuildBalanced(peers, rng, refs_per_level);
    return;
  }

  // Recursive proportional split. Each frame owns a set of peers and the
  // sample keys under the current prefix; with >1 peer the space is split at
  // the next bit and peers are allocated proportionally to sample mass.
  std::function<void(std::vector<PGridPeer*>, std::vector<Key>, Key)> split =
      [&](std::vector<PGridPeer*> group, std::vector<Key> keys, Key prefix) {
        if (group.size() <= 1 ||
            (!keys.empty() && prefix.length() >= keys[0].length())) {
          for (PGridPeer* p : group) p->SetPath(prefix);
          return;
        }
        std::vector<Key> zeros, ones;
        for (const Key& k : keys) {
          if (k.length() > prefix.length() && k.bit(prefix.length()) == 1) {
            ones.push_back(k);
          } else {
            zeros.push_back(k);
          }
        }
        double frac1 =
            keys.empty() ? 0.5 : double(ones.size()) / double(keys.size());
        auto n1 = size_t(std::lround(frac1 * double(group.size())));
        n1 = std::clamp<size_t>(n1, 1, group.size() - 1);
        std::vector<PGridPeer*> g1(group.begin(),
                                   group.begin() + ptrdiff_t(n1));
        std::vector<PGridPeer*> g0(group.begin() + ptrdiff_t(n1), group.end());
        split(std::move(g0), std::move(zeros), prefix.WithBit(0));
        split(std::move(g1), std::move(ones), prefix.WithBit(1));
      };

  std::vector<PGridPeer*> shuffled = peers;
  rng->Shuffle(&shuffled);
  split(shuffled, sample, Key());
  WireRouting(peers, rng, refs_per_level);
}

void PGridBuilder::WireRouting(const std::vector<PGridPeer*>& peers, Rng* rng,
                               int refs_per_level) {
  // Index peers by path so complementary-subtree candidates live in a
  // contiguous sorted range. Refs are then *sampled* from that range instead
  // of collected and shuffled: at level 0 the complementary subtree holds
  // ~n/2 peers, so collect-then-shuffle is O(n^2) across the network and was
  // the wall that kept 100k+-peer deployments from constructing.
  PathIndex index;
  index.entries.reserve(peers.size());
  for (PGridPeer* p : peers) {
    // Reset the level structure and drop stale links: when paths are
    // reassigned wholesale (e.g. balanced -> adaptive rebuild), refs wired
    // for the old topology would violate the complementary-subtree
    // invariant and create routing loops.
    p->routing()->SetPath(p->path());
    p->routing()->ClearLinks();
    index.Add(p->path().bits(), p->id());
  }
  // std::sort, not stable_sort: the order equal paths (replicas) end up in
  // decides which peer a sampled index names, so it is part of the seeded
  // wiring. Fed the same sequence and comparison outcomes, std::sort makes
  // the same permutation as the string-keyed reference in
  // tests/pgrid_builder_test.cc.
  std::sort(index.entries.begin(), index.entries.end(),
            [&index](const PackedPath& a, const PackedPath& b) {
              return index.Less(a, b);
            });

  std::vector<NodeId> pool;  // small-pool candidates, reused across levels
  for (PGridPeer* p : peers) {
    const Key& path = p->path();
    // [lo, hi): the entries whose path starts with the first `level` bits
    // of p's path. Sorted, that range holds the entries equal to the prefix
    // (shortest first), then its 0-subtree, then its 1-subtree; each level
    // splits it with two searches and keeps p's side.
    auto lo = index.entries.begin();
    auto hi = index.entries.end();
    for (int level = 0; level < path.length(); ++level) {
      const auto u = uint32_t(level);
      const auto zeros = std::partition_point(
          lo, hi, [u](const PackedPath& e) { return e.len <= u; });
      const auto ones = std::partition_point(
          zeros, hi, [&index, u](const PackedPath& e) {
            return index.Bit(e, u) == 0;
          });
      // Complementary subtree at `level`: same first `level` bits, opposite
      // bit at `level`. Never contains p itself.
      auto cand_lo = ones, cand_hi = hi;
      if (path.bit(level) == 1) {
        cand_lo = zeros;
        cand_hi = ones;
        lo = ones;
      } else {
        lo = zeros;
        hi = ones;
      }
      const auto m = size_t(cand_hi - cand_lo);
      if (m == 0) continue;
      if (m <= size_t(refs_per_level) * 4) {
        // Small pool: uniform without-replacement via shuffle.
        pool.clear();
        for (auto it = cand_lo; it != cand_hi; ++it) pool.push_back(it->id);
        rng->Shuffle(&pool);
        int take = std::min<int>(refs_per_level, int(pool.size()));
        for (int i = 0; i < take; ++i) {
          p->routing()->AddRef(level, pool[size_t(i)]);
        }
      } else {
        // Large pool: rejection-sample indexes (AddRef dedups). With the
        // pool at least 4x the draw count, a handful of attempts suffices.
        int added = 0;
        for (int attempt = 0; attempt < refs_per_level * 4 &&
                              added < refs_per_level;
             ++attempt) {
          NodeId id =
              (cand_lo + ptrdiff_t(rng->UniformInt(0, int64_t(m) - 1)))->id;
          if (p->routing()->AddRef(level, id)) ++added;
        }
      }
    }
    // Replica set: the entries equal to p's full path, which lead p's own
    // final range.
    const auto len = uint32_t(path.length());
    for (auto it = lo; it != hi && it->len == len; ++it) {
      if (it->id != p->id()) p->routing()->AddReplica(it->id);
    }
  }
}

}  // namespace gridvine
