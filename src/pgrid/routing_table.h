#ifndef GRIDVINE_PGRID_ROUTING_TABLE_H_
#define GRIDVINE_PGRID_ROUTING_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/key.h"
#include "common/rng.h"
#include "sim/network.h"

namespace gridvine {

/// Read-only view over one level's references (or the replica set): a
/// pointer + length into the table's contiguous slot array. Iterable and
/// indexable like the std::vector it replaced; invalidated by any mutation
/// of the table, so don't hold one across AddRef/RemoveRef/SetPath.
class RefSpan {
 public:
  using value_type = NodeId;

  RefSpan() = default;
  RefSpan(const NodeId* data, size_t size) : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  const NodeId* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](size_t i) const { return data_[i]; }

 private:
  const NodeId* data_ = nullptr;
  size_t size_ = 0;
};

/// A P-Grid peer's routing state: for each level l of its path π(p), a set of
/// references to peers whose paths share the first l bits of π(p) and differ
/// at bit l (the "complementary subtree" at that level), plus the replica set
/// σ(p) of peers with the same path.
///
/// The level-wise invariant is exactly what makes greedy prefix routing
/// resolve any key in at most |π(p)| forwards.
///
/// Layout: one contiguous NodeId array of `levels * max_refs_per_level`
/// fixed-width blocks plus a byte of occupancy per level — two heap
/// allocations per peer total (vs. one vector header + one heap block per
/// level before). At 4 refs/level a 20-level table is 320 B of ids + 20
/// count bytes, and a simulation holding a million of these keeps them in
/// ~400 MB instead of several GB of malloc'd node fragments. The level cap
/// is bounded at 255 so counts fit a byte.
class RoutingTable {
 public:
  /// `max_refs_per_level` caps fan-out; additional refs are ignored. More
  /// refs give routing more alternatives under churn at modest memory cost.
  explicit RoutingTable(int max_refs_per_level = 4)
      : max_refs_per_level_(
            max_refs_per_level < 1
                ? 1
                : (max_refs_per_level > 255 ? 255 : max_refs_per_level)) {}

  /// Sets the owning peer's path; resizes the level structure and drops refs
  /// that became inconsistent with the new path (those at levels >= length
  /// never existed; levels shorten only during re-balancing).
  void SetPath(const Key& path);
  const Key& path() const { return path_; }

  /// Adds a reference at `level` (0-based bit index into the path); ignored
  /// when the level is out of range, the table is full at that level, or the
  /// ref is a duplicate. Returns true if stored.
  bool AddRef(int level, NodeId id);

  /// Removes a reference wherever it appears (e.g. observed dead).
  void RemoveRef(NodeId id);

  /// Drops every reference and replica link (used when the peer's region is
  /// reassigned wholesale and existing links no longer satisfy the
  /// complementary-subtree invariant).
  void ClearLinks();

  /// View of level `level`'s refs (empty for out-of-range levels).
  /// Invalidated by any table mutation.
  RefSpan RefsAt(int level) const;

  /// Picks the next hop for `key`: the divergence level l of `key` against
  /// π(p) selects the ref list, and one uniform draw picks among its refs
  /// outside `avoid` (random choice spreads load over alternatives and lets
  /// retries explore different paths under churn). When every ref is in
  /// `avoid`, the pick avoids only avoid's last entry, and when that leaves
  /// nothing, any ref: a retry skips every first hop its request tried, a
  /// forwarder skips the sender while another ref exists. Returns nullopt
  /// when the key belongs to this peer's subtree or no ref is known at the
  /// divergence level; otherwise draws exactly once. Allocation-free.
  /// Templated over the generator so callers holding a big Rng and peers
  /// holding a CompactRng share one implementation.
  template <typename RngT>
  std::optional<NodeId> NextHop(const Key& key, RngT* rng,
                                std::span<const NodeId> avoid = {}) const {
    const RefSpan refs = RefsAt(DivergenceLevel(key));
    const size_t eligible = NarrowAvoid(refs, &avoid);
    if (eligible == 0) return std::nullopt;
    auto pick = static_cast<size_t>(rng->UniformInt(0, int64_t(eligible) - 1));
    for (NodeId ref : refs) {
      if (!Contains(avoid, ref) && pick-- == 0) return ref;
    }
    return std::nullopt;  // unreachable
  }

  /// Divergence level of `key` against the path, or path length if the key
  /// lies in this peer's subtree.
  int DivergenceLevel(const Key& key) const;

  void AddReplica(NodeId id);
  void RemoveReplica(NodeId id);
  const std::vector<NodeId>& replicas() const { return replicas_; }

  int levels() const { return static_cast<int>(counts_.size()); }
  int max_refs_per_level() const { return max_refs_per_level_; }

  /// Total number of stored references across levels.
  size_t TotalRefs() const;

  /// Bytes of heap behind this table (slot array, counts, replicas, path),
  /// by capacity.
  size_t MemoryFootprint() const;

 private:
  static bool Contains(std::span<const NodeId> ids, NodeId id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }

  /// NextHop's avoid ladder: narrows `*avoid` (all of it, then its last
  /// entry, then nothing) until some ref lies outside it, and returns how
  /// many do (0 only when `refs` is empty).
  static size_t NarrowAvoid(RefSpan refs, std::span<const NodeId>* avoid) {
    for (;;) {
      size_t outside = 0;
      for (NodeId ref : refs) outside += Contains(*avoid, ref) ? 0 : 1;
      if (outside > 0 || avoid->empty()) return outside;
      *avoid = avoid->last(avoid->size() > 1 ? 1 : 0);
    }
  }

  NodeId* LevelBlock(int level) {
    return slots_.data() + size_t(level) * size_t(max_refs_per_level_);
  }
  const NodeId* LevelBlock(int level) const {
    return slots_.data() + size_t(level) * size_t(max_refs_per_level_);
  }

  int max_refs_per_level_;
  Key path_;
  /// Fixed-width blocks, one per level: slots_[l*cap .. l*cap+counts_[l]).
  std::vector<NodeId> slots_;
  std::vector<uint8_t> counts_;
  std::vector<NodeId> replicas_;
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_ROUTING_TABLE_H_
