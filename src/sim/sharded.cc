#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace gridvine {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}  // namespace

// The base's Rng is never drawn from: every draw comes from an actor's
// stream.
ShardedNetwork::ShardedNetwork(Options opts)
    : Network(&queue_, std::move(opts.latency), Rng(0),
              opts.loss_probability),
      seed_(opts.seed),
      external_{SmallRng(Mix64(opts.seed ^ 0xE7037ED1A0B428DBULL))} {
  ring_.SetClock([this] { return queue_.Now(); });
  ring_.SetOrderSource([this] { return NextTraceOrder(actor_); });
  SetTracer(&ring_);
}

NodeId ShardedNetwork::AddNode(NetworkNode* node) {
  const NodeId id = Network::AddNode(node);
  // Per-node stream derived from (seed, id) only — independent of every
  // other node's draw history.
  actors_.push_back(
      Actor{SmallRng(Mix64(seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1))))});
  return id;
}

void ShardedNetwork::Send(NodeId from, NodeId to,
                          std::shared_ptr<const MessageBody> body) {
  Transmit(this, from, to, std::move(body), &ActorState(actor_).rng);
}

void ShardedNetwork::Deliver(NodeId from, NodeId to,
                             std::shared_ptr<const MessageBody> body,
                             TraceCtx flight) {
  // The handler runs as the destination: its sends, timers and draws
  // attribute to `to`'s counters and stream, exactly as if `to` had
  // scheduled them from one of its own events.
  actor_ = to;
  Network::Deliver(from, to, std::move(body), flight);
}

uint64_t ShardedNetwork::NextTraceOrder(uint32_t actor) {
  if (actor == kExternalActor) return ++external_.spans;
  // actor + 1 so node 0's keys stay disjoint from the external counter.
  return (uint64_t(actor + 1) << 32) | ++actors_[actor].spans;
}

void ShardedNetwork::ScheduleForNode(NodeId id, SimTime delay, EventFn fn) {
  assert(id < actors_.size());
  if (delay < 0) delay = 0;
  queue_.ScheduleKeyedAt(Now() + delay, NextSubkey(id), std::move(fn));
}

void ShardedNetwork::ScheduleGlobal(SimTime at, std::function<void()> fn) {
  if (at < Now()) at = Now();
  global_tasks_.push_back(GlobalTask{at, ++global_task_seq_, std::move(fn)});
  std::push_heap(global_tasks_.begin(), global_tasks_.end(), std::greater<>());
}

void ShardedNetwork::RunAsNode(NodeId id, const std::function<void()>& fn) {
  assert(id < actors_.size());
  const uint32_t prev = actor_;
  actor_ = id;
  fn();
  actor_ = prev;
}

size_t ShardedNetwork::RunLoop(SimTime until, const bool* done,
                               size_t max_events) {
  const SimTime cap = std::nextafter(until, kInf);  // events at `until` run
  size_t ran = 0;
  while ((done == nullptr || !*done) && ran < max_events) {
    // Node events strictly before the next global task, so the task runs
    // first on a tie.
    const SimTime task_at =
        global_tasks_.empty() ? kInf : global_tasks_.front().at;
    uint64_t subkey;
    EventFn fn;
    if (queue_.PopBefore(std::min(task_at, cap), &subkey, &fn)) {
      actor_ = static_cast<uint32_t>(subkey >> 32);
      fn();
      actor_ = kExternalActor;
      ++ran;
      continue;
    }
    if (global_tasks_.empty() || task_at > until) break;
    queue_.AdvanceTo(task_at);
    std::pop_heap(global_tasks_.begin(), global_tasks_.end(),
                  std::greater<>());
    GlobalTask task = std::move(global_tasks_.back());
    global_tasks_.pop_back();
    task.fn();
  }
  if (until != kInf) queue_.AdvanceTo(until);
  return ran;
}

size_t ShardedNetwork::RunUntilIdle(size_t max_events) {
  return RunLoop(kInf, nullptr, max_events);
}

size_t ShardedNetwork::RunUntil(SimTime t) {
  return RunLoop(t, nullptr, SIZE_MAX);
}

size_t ShardedNetwork::RunUntilFlag(const bool* done) {
  return RunLoop(kInf, done, SIZE_MAX);
}

size_t ShardedNetwork::MemoryFootprint() const {
  return NodeTableBytes() + actors_.capacity() * sizeof(Actor) +
         global_tasks_.capacity() * sizeof(GlobalTask) +
         queue_.MemoryFootprint();
}

}  // namespace gridvine
