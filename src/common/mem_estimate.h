#ifndef GRIDVINE_COMMON_MEM_ESTIMATE_H_
#define GRIDVINE_COMMON_MEM_ESTIMATE_H_

#include <cstddef>
#include <string>

namespace gridvine {

/// Heap-byte estimators behind the MemoryFootprint() accounting APIs.
///
/// These are structural approximations, not allocator truth: they count what
/// the container's layout implies (payload + per-node bookkeeping + table
/// arrays) and ignore malloc rounding. That is the useful number for
/// capacity planning — "bytes per peer at 1M peers" — and it is stable
/// across allocators, which allocator-level measurement is not.

/// Heap bytes behind a std::string, by capacity; 0 when the small-string
/// buffer suffices (libstdc++/libc++ keep <= 15/22 chars inline — 16 is a
/// close, portable-enough threshold).
inline size_t StringHeapBytes(const std::string& s) {
  return s.capacity() >= 16 ? s.capacity() + 1 : 0;
}

/// Red-black-tree container (map/set/multimap) nodes: payload plus parent /
/// left / right pointers and the color word.
inline size_t RbTreeBytes(size_t nodes, size_t value_bytes) {
  return nodes * (value_bytes + 4 * sizeof(void*));
}

/// unordered_map/set: the bucket array plus per-node payload, forward
/// pointer and cached hash.
template <typename M>
size_t HashMapBytes(const M& m) {
  return m.bucket_count() * sizeof(void*) +
         m.size() * (sizeof(typename M::value_type) + 2 * sizeof(void*));
}

/// std::deque, libstdc++ layout: even an empty deque holds a node map (at
/// least 8 pointers) and one 512-byte node (or one element, if larger).
template <typename T>
size_t DequeBytes(size_t elements) {
  const size_t per_node = sizeof(T) < 512 ? 512 / sizeof(T) : 1;
  const size_t nodes = elements / per_node + 1;
  const size_t map_slots = nodes + 2 > 8 ? nodes + 2 : 8;
  return map_slots * sizeof(void*) + nodes * per_node * sizeof(T);
}

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_MEM_ESTIMATE_H_
