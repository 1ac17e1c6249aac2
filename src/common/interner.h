#ifndef GRIDVINE_COMMON_INTERNER_H_
#define GRIDVINE_COMMON_INTERNER_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "common/mem_estimate.h"

namespace gridvine {

/// Process-wide refcounted intern pool for immutable shared values, keyed by
/// a canonical string (the value's serialized form). All holders of the same
/// logical value share one heap object: a simulation where 100k peers each
/// register the same dozen schemas stores a dozen Schema objects, not 1.2M
/// copies. Mutation happens by replacing a holder's pointer with a newly
/// interned variant — never by writing through the shared object.
///
/// Thread-safe (lookups take a shared lock), since one pool serves the whole
/// process. The pool keeps entries alive even when no
/// holder remains; call Prune() to drop unreferenced ones.
template <typename T>
class InternPool {
 public:
  /// The pool's object for `key`, creating it from `value` if absent.
  std::shared_ptr<const T> Intern(const std::string& key, const T& value) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = pool_.find(key);
      if (it != pool_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] = pool_.try_emplace(key);
    if (inserted) it->second = std::make_shared<const T>(value);
    return it->second;
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pool_.size();
  }

  /// Drops entries referenced only by the pool itself; returns how many.
  size_t Prune() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    size_t dropped = 0;
    for (auto it = pool_.begin(); it != pool_.end();) {
      if (it->second.use_count() == 1) {
        it = pool_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  /// Structural bytes (keys, map nodes, objects + control blocks); the
  /// objects' own heap (their strings) is not traversed.
  size_t MemoryFootprint() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t bytes = HashMapBytes(pool_);
    for (const auto& [key, value] : pool_) {
      (void)value;
      bytes += StringHeapBytes(key) + sizeof(T) + 4 * sizeof(void*);
    }
    return bytes;
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const T>> pool_;
};

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_INTERNER_H_
