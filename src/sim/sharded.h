#ifndef GRIDVINE_SIM_SHARDED_H_
#define GRIDVINE_SIM_SHARDED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace gridvine {

/// The content-keyed event engine: one event queue and the transport over
/// it, run on the calling thread. It is a Network — peers are built against
/// sim() and the engine itself and run unchanged, through the same send and
/// delivery policies as the classic transport — and fixes a run's outcome
/// by content rather than by push order:
///
///   - every event is keyed (time, creator node, per-creator counter), so
///     two events at the same time order by who created them and in which
///     order, not by when they reached the queue;
///   - every random draw (latency, loss, fault plan) comes from the acting
///     node's own SmallRng stream, derived from (seed, node id) alone;
///   - every span gets a content-derived order key — (creator, per-creator
///     counter) again, from counters separate from the event keys, so a
///     traced run stays bit-identical to the untraced one.
///
/// The "current actor" is the node whose event is executing: the creator of
/// the popped event, or the destination for the duration of a message
/// delivery. Everything the actor does — schedules, sends, draws — is
/// attributed to it. Code outside any event acts as an external actor with
/// a stream of its own, unless it goes through RunAsNode or ScheduleForNode.
///
/// Classic and keyed runs of one seed are not comparable bit for bit: the
/// engines consume random streams differently. The class name is kept from
/// the engine's multi-shard past because the benchmark harness uses it.
class ShardedNetwork : public Network {
 public:
  struct Options {
    uint64_t seed = 1;
    double loss_probability = 0.0;
    /// Required.
    std::unique_ptr<LatencyModel> latency;
  };

  explicit ShardedNetwork(Options opts);

  /// Registers a node under the next id, with its own random stream.
  NodeId AddNode(NetworkNode* node) override;
  /// The shared send policy, drawing from the acting node's stream; each
  /// in-flight copy is keyed with the actor's next counter.
  void Send(NodeId from, NodeId to,
            std::shared_ptr<const MessageBody> body) override;

  // ---- scheduling ----

  /// Schedules `fn` `delay` seconds from now, keyed and attributed as if
  /// `id` itself had scheduled it. This is how drivers (benches, harnesses)
  /// inject work; code inside an event schedules through sim() as usual.
  void ScheduleForNode(NodeId id, SimTime delay, EventFn fn);

  /// Runs `fn` at absolute time `at` (clamped to now) as the external
  /// actor, before any node event at the same time: the place for churn
  /// flips, fault-window edits and mid-run measurements. Global tasks run
  /// in (time, insertion) order and may schedule further work.
  void ScheduleGlobal(SimTime at, std::function<void()> fn);

  /// Runs `fn` now with `id` as the current actor, so the sends and
  /// schedules inside draw from `id`'s stream and counters.
  void RunAsNode(NodeId id, const std::function<void()>& fn);

  // ---- execution ----

  /// Runs until no event or global task remains, or `max_events` events
  /// have run. Returns the events run by this call.
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);
  /// Runs every event and global task due at or before `t`, then advances
  /// the clock to `t`.
  size_t RunUntil(SimTime t);
  /// Runs until `*done` is true or nothing remains, checking the flag before
  /// each event and global task: nothing runs after the one that sets it,
  /// as in Simulator::RunUntilFlag.
  size_t RunUntilFlag(const bool* done);

  SimTime Now() const { return queue_.Now(); }
  size_t events_executed() const { return queue_.events_executed(); }
  size_t pending() const { return queue_.pending() + global_tasks_.size(); }

  /// Bytes of heap owned by the engine itself: the node table, per-node
  /// streams and counters, global tasks and the event queue. Peer state is
  /// the peers' own MemoryFootprint().
  size_t MemoryFootprint() const;

 private:
  friend class Network;  // the delivery records call Deliver

  /// Actor id for code running outside any node's event. Distinct from
  /// every NodeId.
  static constexpr uint32_t kExternalActor = 0xFFFFFFFFu;

  /// The event queue. Its default scheduling path keys each event with the
  /// current actor's next counter. Drive it only through the engine's Run*
  /// calls, which track the current actor; its own Run loop would not.
  class Queue : public Simulator {
   public:
    explicit Queue(ShardedNetwork* engine) : engine_(engine) {}
    void ScheduleAt(SimTime t, EventFn fn) override {
      ScheduleKeyedAt(t, engine_->NextSubkey(engine_->actor_), std::move(fn));
    }

   private:
    ShardedNetwork* engine_;
  };

  /// One actor's stream and counters.
  struct Actor {
    SmallRng rng;
    uint32_t events = 0;  ///< event-key counter
    uint32_t spans = 0;   ///< span-order counter, never shared with events
  };

  struct GlobalTask {
    SimTime at;
    uint64_t seq;  // FIFO among equal times
    std::function<void()> fn;
    bool operator>(const GlobalTask& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  Actor& ActorState(uint32_t actor) {
    return actor == kExternalActor ? external_ : actors_[actor];
  }
  /// Next event key for an event created by `actor`.
  uint64_t NextSubkey(uint32_t actor) {
    return (uint64_t(actor) << 32) | ++ActorState(actor).events;
  }
  /// Next span-order key for `actor`. External spans use a plain low
  /// counter, sorting before any node's spans at an equal timestamp (the
  /// driver roots a trace before the nodes it triggers extend it).
  uint64_t NextTraceOrder(uint32_t actor);
  /// Runs the shared delivery policy with `to` as the actor.
  void Deliver(NodeId from, NodeId to, std::shared_ptr<const MessageBody> body,
               TraceCtx flight);
  /// The loop behind the public Run* calls.
  size_t RunLoop(SimTime until, const bool* done, size_t max_events);

  uint64_t seed_;
  Queue queue_{this};
  uint32_t actor_ = kExternalActor;
  std::vector<Actor> actors_;  // indexed by NodeId
  Actor external_;
  std::vector<GlobalTask> global_tasks_;  // min-heap via std::*_heap
  uint64_t global_task_seq_ = 0;
  /// The span ring, wired in as tracer(); inert until tracer()->Enable().
  Tracer ring_;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_SHARDED_H_
