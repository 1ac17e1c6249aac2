#ifndef GRIDVINE_COMMON_ARENA_H_
#define GRIDVINE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace gridvine {

/// Chunked bump allocator. One Arena backs the variable-length payloads of a
/// component (dictionary strings, slot payloads): allocation is a pointer
/// bump, deallocation happens only wholesale (Reset / destruction), and the
/// per-allocation overhead is zero — no malloc header, no free-list node.
/// That is exactly the lifetime shape of per-peer interned state, and at
/// 100k–1M simulated peers the headers and fragmentation of one heap
/// allocation per string dominate the strings themselves.
///
/// Not thread-safe; each owning component allocates from its own arena.
class Arena {
 public:
  /// `min_chunk_bytes` sizes the first chunk; subsequent chunks double up to
  /// kMaxChunkBytes. Allocations larger than a chunk get a dedicated chunk.
  explicit Arena(size_t min_chunk_bytes = 1024)
      : next_chunk_bytes_(min_chunk_bytes < 64 ? 64 : min_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Returns `n` bytes aligned to `align` (a power of two). n == 0 returns a
  /// valid one-past pointer that must not be dereferenced.
  void* Allocate(size_t n, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (pos_ + (align - 1)) & ~uintptr_t(align - 1);
    if (p + n > end_) return AllocateSlow(n, align);
    pos_ = p + n;
    used_ += n;
    return reinterpret_cast<void*>(p);
  }

  /// Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s) {
    if (s.empty()) return std::string_view(reinterpret_cast<const char*>(this), 0);
    char* p = static_cast<char*>(Allocate(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  /// Discards every allocation but keeps the largest chunk for reuse, so an
  /// arena that is cleared and refilled reaches a steady state with no
  /// further heap traffic.
  void Reset() {
    if (chunks_.empty()) {
      pos_ = end_ = 0;
    } else {
      // Keep only the largest chunk (the newest one, by doubling).
      chunks_.erase(chunks_.begin(), chunks_.end() - 1);
      pos_ = reinterpret_cast<uintptr_t>(chunks_.back().data.get());
      end_ = pos_ + chunks_.back().size;
    }
    used_ = 0;
  }

  /// Bytes handed out to callers since construction / Reset (excludes
  /// padding and unused chunk tails).
  size_t bytes_used() const { return used_; }

  /// Bytes of chunk storage owned (what the arena costs the process).
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

  size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void* AllocateSlow(size_t n, size_t align) {
    size_t want = n + align;  // worst-case alignment slack
    size_t size = next_chunk_bytes_;
    while (size < want) size *= 2;
    if (next_chunk_bytes_ < kMaxChunkBytes) {
      next_chunk_bytes_ = size * 2 < kMaxChunkBytes ? size * 2 : kMaxChunkBytes;
    }
    chunks_.push_back(Chunk{std::make_unique<char[]>(size), size});
    pos_ = reinterpret_cast<uintptr_t>(chunks_.back().data.get());
    end_ = pos_ + size;
    uintptr_t p = (pos_ + (align - 1)) & ~uintptr_t(align - 1);
    pos_ = p + n;
    used_ += n;
    return reinterpret_cast<void*>(p);
  }

  static constexpr size_t kMaxChunkBytes = size_t(1) << 20;  // 1 MiB

  std::vector<Chunk> chunks_;
  uintptr_t pos_ = 0;
  uintptr_t end_ = 0;
  size_t used_ = 0;
  size_t next_chunk_bytes_;
};

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_ARENA_H_
