#include "sim/msg_type.h"

#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace gridvine {

namespace {

struct Registry {
  /// Guards every map/deque mutation: the registry is process-wide, so reads
  /// take a shared lock and first-sight interning upgrades to exclusive.
  /// Names are append-only in a deque (never relocated, never erased), so
  /// references returned to callers stay valid after the lock is released.
  mutable std::shared_mutex mu;
  /// Stable storage for names: ids index into `names`, and the string_view
  /// keys of `by_name` point into it (deque never relocates elements).
  std::deque<std::string> names;
  std::unordered_map<std::string_view, uint32_t> by_name;
  /// (outer id << 32 | inner id) -> composite id, so steady-state composite
  /// tag resolution is one integer hash lookup.
  std::unordered_map<uint64_t, uint32_t> composites;

  Registry() {
    names.emplace_back("?");
    by_name.emplace(names.back(), 0);
  }

  uint32_t Intern(std::string_view name) {
    {
      std::shared_lock lock(mu);
      auto it = by_name.find(name);
      if (it != by_name.end()) return it->second;
    }
    std::unique_lock lock(mu);
    return InternLocked(name);
  }

  uint32_t InternLocked(std::string_view name) {
    auto it = by_name.find(name);
    if (it != by_name.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(names.size());
    names.emplace_back(name);
    by_name.emplace(names.back(), id);
    return id;
  }
};

Registry& TheRegistry() {
  static Registry r;
  return r;
}

}  // namespace

MsgType MsgType::Intern(std::string_view name) {
  return MsgType(TheRegistry().Intern(name));
}

MsgType MsgType::Composite(MsgType outer, MsgType inner) {
  Registry& reg = TheRegistry();
  uint64_t key = (uint64_t(outer.id_) << 32) | inner.id_;
  {
    std::shared_lock lock(reg.mu);
    auto it = reg.composites.find(key);
    if (it != reg.composites.end()) return MsgType(it->second);
  }
  std::unique_lock lock(reg.mu);
  auto it = reg.composites.find(key);  // re-check after the upgrade gap
  if (it != reg.composites.end()) return MsgType(it->second);
  uint32_t id =
      reg.InternLocked(reg.names[outer.id_] + "/" + reg.names[inner.id_]);
  reg.composites.emplace(key, id);
  return MsgType(id);
}

MsgType MsgType::Find(std::string_view name) {
  Registry& reg = TheRegistry();
  std::shared_lock lock(reg.mu);
  auto it = reg.by_name.find(name);
  return it == reg.by_name.end() ? MsgType() : MsgType(it->second);
}

size_t MsgType::RegistryCount() {
  Registry& reg = TheRegistry();
  std::shared_lock lock(reg.mu);
  return reg.names.size();
}

const std::string& MsgType::NameOf(uint32_t id) {
  Registry& reg = TheRegistry();
  std::shared_lock lock(reg.mu);
  return id < reg.names.size() ? reg.names[id] : reg.names[0];
}

const std::string& MsgType::name() const { return NameOf(id_); }

}  // namespace gridvine
