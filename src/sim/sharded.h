#ifndef GRIDVINE_SIM_SHARDED_H_
#define GRIDVINE_SIM_SHARDED_H_

#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sim/fault_plan.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace gridvine {

class ShardedNetwork;

/// One shard's event queue: a Simulator whose default scheduling path derives
/// the tie-break key from *content* — (creator node, per-creator counter) —
/// instead of a per-queue sequence number. With content keys, two events at
/// the same simulated time order the same way no matter which queue they sit
/// in or when they were pushed, which is what makes a run's outcome
/// independent of the shard count.
///
/// The "current actor" is the node whose event is executing right now (set by
/// the engine's run loop from the popped key, and overridden to the
/// destination node for the duration of a message delivery). Everything that
/// actor does — schedules, latency/loss draws — is attributed to it, and an
/// actor's events always run on its owner shard, serially, so per-actor
/// counters and SmallRng streams need no synchronization.
///
/// Do not drive a ShardSimulator with the base Run*/Schedule loop directly;
/// it only makes sense inside a ShardedNetwork (which also owns the epoch
/// logic for shards == 1).
class ShardSimulator : public Simulator {
 public:
  /// Actor id for code running outside any node's event (the coordinating
  /// thread between epochs). Distinct from every NodeId.
  static constexpr uint32_t kExternalActor = 0xFFFFFFFFu;

  /// Keys the event with (current actor, next per-actor counter).
  void ScheduleAt(SimTime t, EventFn fn) override;

  uint32_t current_actor() const { return current_actor_; }
  void set_current_actor(uint32_t actor) { current_actor_ = actor; }

 private:
  friend class ShardedNetwork;
  ShardedNetwork* engine_ = nullptr;
  uint32_t current_actor_ = kExternalActor;
};

/// Sharded conservative parallel discrete-event engine: partitions the peer
/// population across N shards (owner shard = id % N), each with its own
/// ShardSimulator and worker thread, and plays the Network role for all of
/// them through per-shard "lane" facades. Peers are constructed against
/// their owner shard's simulator and lane and run unchanged.
///
/// Synchronization is conservative lookahead: every message takes at least
/// L = LatencyModel::MinDelay() seconds, so in the epoch window [T, T+L)
/// (T = globally earliest pending event) no shard can hear from another, and
/// all shards run their window concurrently without locks. Cross-shard sends
/// are buffered in per-shard-pair SPSC mailboxes and folded into the
/// destination queues at the barrier between epochs.
///
/// Determinism (the merge rule): every event is keyed (time, creator,
/// per-creator counter). Keys are unique and content-derived, epoch
/// boundaries depend only on the globally earliest event time, and all
/// randomness comes from per-node SmallRng streams drawn inside the owning
/// node's serialized events — so a run's outcome (peer state, aggregate
/// stats, final clock) is bit-identical for any shard count, including 1
/// (where the same epoch loop runs inline with no threads).
/// tests/sharded_determinism_test.cc asserts this for shards in {1, 2, 4}.
///
/// Tracing works in sharded mode: each shard owns a private Tracer
/// (EnableTracing), span ids carry the shard index in the high bits over a
/// shard-local counter, and every span gets a content-derived order key —
/// (creator actor, per-actor trace counter), separate from the event
/// subkeys so traced and untraced runs stay bit-identical. Lanes run the
/// single-threaded Network's send and delivery policies, so flight spans
/// open and close exactly as there; a
/// flight that lands on another shard is closed through a per-shard end-op
/// mailbox drained at the next barrier (same handoff discipline as
/// cross-shard sends). Merge the rings with TraceView(TracerParts()):
/// sorting by (start, order) reproduces the shards=1 span sequence of the
/// same seed. Caveat: under ring eviction a cross-shard flight may be
/// evicted before its barrier-deferred end lands (it exports as still
/// open); size the ring to the run as usual.
///
/// Still out of scope: mid-epoch liveness changes (SetAlive /
/// ScheduleGlobal take effect at quiescent points only — between Run*
/// calls or in a global task).
class ShardedNetwork {
 public:
  struct Options {
    uint32_t shards = 1;
    uint64_t seed = 1;
    double loss_probability = 0.0;
    /// Required; MinDelay() must be positive — it is the lookahead that
    /// gives parallel execution room to run.
    std::unique_ptr<LatencyModel> latency;
  };

  explicit ShardedNetwork(Options opts);
  ~ShardedNetwork();
  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  // ---- topology (all quiescent-only) ----

  /// Registers a node under the next id; its owner shard is id % shards().
  /// Construct the node against SimForNext()/LaneForNext() *before* the
  /// AddNode call — ids are sequential, so the owner is known in advance.
  NodeId AddNode(NetworkNode* node);
  uint32_t OwnerShard(NodeId id) const { return id % shards_; }
  /// The shard that will own the next AddNode'd id.
  uint32_t NextShard() const { return uint32_t(nodes_.size()) % shards_; }

  Simulator* SimFor(NodeId id) { return sims_[OwnerShard(id)].get(); }
  Network* LaneFor(NodeId id);
  Simulator* SimForShard(uint32_t s) { return sims_[s].get(); }
  Network* LaneForShard(uint32_t s);
  Simulator* SimForNext() { return sims_[NextShard()].get(); }
  Network* LaneForNext() { return LaneForShard(NextShard()); }

  uint32_t shards() const { return shards_; }
  size_t size() const { return nodes_.size(); }

  // ---- liveness / faults (quiescent-only writes) ----

  void SetAlive(NodeId id, bool alive);
  bool IsAlive(NodeId id) const {
    return id < alive_.size() && alive_[id] != 0;
  }
  /// One plan shared by all shards; its windows are read-only during a run
  /// (drop/duplicate draws come from per-node streams), so concurrent
  /// consultation is safe. Install or mutate windows only while quiescent.
  void SetFaultPlan(std::unique_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  // ---- scheduling (quiescent-only) ----

  /// Schedules `fn` on `id`'s shard, keyed and attributed as if `id` itself
  /// had scheduled it `delay` seconds from the engine clock. This is how
  /// external drivers (benches, harnesses) inject work: never schedule on a
  /// shard simulator directly from outside.
  void ScheduleForNode(NodeId id, SimTime delay, EventFn fn);

  /// Runs `fn` at absolute time `at` (clamped to now) on the coordinating
  /// thread with every shard parked and clocks synced — the place for churn
  /// flips (SetAlive), fault-window edits, and mid-run measurements. Global
  /// tasks run in (time, insertion) order and may schedule further work.
  void ScheduleGlobal(SimTime at, std::function<void()> fn);

  /// Runs `fn` immediately (quiescent) with `id` as the current actor, so
  /// sends and schedules inside attribute to `id`'s streams and counters.
  void RunAsNode(NodeId id, const std::function<void()>& fn);

  // ---- execution ----

  /// Runs epochs until no pending events, mailboxes or global tasks remain
  /// (or `max_events` have fired engine-wide). Returns events executed by
  /// this call.
  size_t RunUntilIdle(size_t max_events = SIZE_MAX);
  /// Runs all events with firing time <= t, then advances every clock to t.
  size_t RunUntil(SimTime t);
  /// Runs whole epochs until `*done` is true, checking at epoch boundaries
  /// (events later in the flipping epoch still fire — coarser than the
  /// single-threaded Simulator::RunUntilFlag, but shard-count invariant).
  /// The flag must be written only from one node's handlers (one shard).
  size_t RunUntilFlag(const bool* done);

  /// Engine clock: all shard clocks are synced to this at quiescent points.
  SimTime Now() const { return now_; }
  size_t events_executed() const;
  size_t pending() const;

  // ---- tracing (quiescent-only control) ----

  /// Enables the per-shard tracers (each ring gets `capacity_per_shard`
  /// slots). Tracing draws no Rng and consumes no event subkeys, so a
  /// traced run stays bit-identical to the untraced run of the same seed.
  void EnableTracing(size_t capacity_per_shard = 1 << 20);
  void DisableTracing();
  /// Shard s's private ring (wired into its lane as Network::tracer()).
  Tracer* TracerForShard(uint32_t s) { return tracers_[s].get(); }
  /// All rings, for a merged TraceView.
  std::vector<Tracer*> TracerParts();

  // ---- accounting ----

  /// Per-lane stats folded into one network-wide view. The drain invariant
  /// (sent + duplicated == delivered + dropped, once idle) holds on the
  /// aggregate: sends/send-drops count on the sender's lane, deliveries and
  /// delivery-drops on the destination's.
  NetworkStats AggregateStats() const;
  /// Aggregate "net.*" counters plus the engine's own "sim.shard.*" family
  /// (epochs, barrier wait, cross-shard traffic).
  void PublishMetrics(MetricsRegistry* metrics) const;

  /// Bytes of heap owned by the engine itself: per-node state (rng, seq,
  /// liveness, node table), shard queues and mailboxes. Peer state is the
  /// peers' own MemoryFootprint().
  size_t MemoryFootprint() const;

  uint64_t epochs() const { return epochs_; }
  uint64_t cross_shard_messages() const;
  /// Summed per-epoch spread between the first and last shard to finish —
  /// the cost of the conservative barrier (wall-clock; not part of the
  /// deterministic outcome).
  double barrier_wait_seconds() const { return barrier_wait_seconds_; }

 private:
  friend class ShardSimulator;
  class ShardLane;

  /// One in-flight copy: everything its destination queue needs to schedule
  /// the delivery, whether it is scheduled at once or mailed across shards
  /// (bit-identically either way). `ctx` is the flight span (invalid when
  /// untraced).
  struct PendingDelivery {
    SimTime at;
    uint64_t subkey;
    NodeId from;
    NodeId to;
    std::shared_ptr<const MessageBody> body;
    TraceCtx ctx{};
  };

  /// The scheduled half of a sharded send, like Network::Delivery (32
  /// bytes, inline in EventFn, memcpy-relocatable).
  struct ShardDelivery {
    static constexpr bool kTriviallyRelocatable = true;
    ShardedNetwork* engine;
    NodeId from;
    NodeId to;
    std::shared_ptr<const MessageBody> body;
    void operator()() {
      engine->Deliver(from, to, std::move(body), TraceCtx{});
    }
  };

  /// Delivery with its flight span aboard — scheduled only for traced
  /// sends, like Network::TracedDelivery (48 bytes, still inline).
  struct TracedShardDelivery {
    static constexpr bool kTriviallyRelocatable = true;
    ShardedNetwork* engine;
    NodeId from;
    NodeId to;
    std::shared_ptr<const MessageBody> body;
    TraceCtx ctx;  ///< always valid here
    void operator()() { engine->Deliver(from, to, std::move(body), ctx); }
  };

  /// A flight span whose delivery landed off its owner shard: the end (and
  /// drop cause, for deliveries to dead nodes) is applied to the owner ring
  /// at the next barrier. No cause means a clean delivery.
  struct TraceEndOp {
    TraceCtx ctx;
    SimTime at;
    std::optional<DropCause> cause;
  };

  struct GlobalTask {
    SimTime at;
    uint64_t seq;  // FIFO among equal times
    std::function<void()> fn;
    bool operator>(const GlobalTask& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  /// Next content-derived tie-break key for an event created by `actor`.
  /// Called only from the actor's own serialized events (worker thread) or
  /// from the coordinating thread while quiescent.
  uint64_t NextSubkey(uint32_t actor);
  /// Next span-order key for `actor` — same (creator, counter) shape as the
  /// event subkeys but from separate counters, so tracing never perturbs
  /// event ordering. External (quiescent-driver) spans use a plain low
  /// counter, sorting before any node's spans at an equal timestamp (the
  /// driver roots a trace before the nodes it triggers extend it).
  uint64_t NextTraceOrder(uint32_t actor);
  SmallRng* RngFor(uint32_t actor) {
    return actor == ShardSimulator::kExternalActor ? &external_rng_
                                                   : &node_rng_[actor];
  }

  /// A lane's Send: the shared send policy with the acting node's stream;
  /// each copy is keyed with the actor's next subkey and dispatched.
  void DoSend(uint32_t shard, ShardLane* lane, NodeId from, NodeId to,
              std::shared_ptr<const MessageBody> body);
  /// Schedules `p` on its destination shard, or mails it there when that is
  /// not `src_shard`.
  void Dispatch(uint32_t src_shard, PendingDelivery p);
  /// Schedules `p`'s delivery record on `dst` under its subkey.
  void Enqueue(Simulator* dst, PendingDelivery p);
  /// Runs the shared delivery policy on `to`'s lane with `to` as the actor.
  void Deliver(NodeId from, NodeId to, std::shared_ptr<const MessageBody> body,
               TraceCtx ctx);
  /// Ends `flight` for a delivery observed on shard `dst` at its clock:
  /// directly when dst owns the span's ring, else via dst's end-op box.
  void EndFlight(uint32_t dst, TraceCtx flight, std::optional<DropCause> cause);

  /// Pops every event strictly before `horizon` on shard `s`, tracking the
  /// current actor from each popped key.
  void RunShardEpoch(uint32_t s, SimTime horizon);
  /// One barrier-synchronized epoch across all shards (inline if shards==1).
  void RunEpochParallel(SimTime horizon);
  void DrainMailboxes();
  void DrainTraceEnds();
  void AdvanceAll(SimTime t);
  /// The shared engine loop behind the public Run* entry points.
  size_t RunLoop(SimTime until, const bool* done, size_t max_events);
  void WorkerMain(uint32_t s);

  uint32_t shards_;
  uint64_t seed_;
  double loss_probability_;
  std::unique_ptr<LatencyModel> latency_;
  SimTime lookahead_;
  std::unique_ptr<FaultPlan> fault_plan_;

  std::vector<std::unique_ptr<ShardSimulator>> sims_;
  std::vector<std::unique_ptr<ShardLane>> lanes_;

  // Global node state. Indexed by NodeId; mutated only while quiescent
  // except node_rng_/seq_ slots, which are touched only by the owning
  // actor's serialized events.
  std::vector<NetworkNode*> nodes_;
  std::vector<uint8_t> alive_;  // not vector<bool>: one byte per node
  std::vector<uint32_t> seq_;
  std::vector<SmallRng> node_rng_;
  SmallRng external_rng_;
  uint64_t external_seq_ = 0;

  /// Per-shard span rings (always constructed; inert until EnableTracing).
  std::vector<std::unique_ptr<Tracer>> tracers_;
  /// Per-actor span-order counters — deliberately NOT seq_: event subkeys
  /// must be identical traced vs untraced. Same ownership rule as seq_.
  std::vector<uint32_t> trace_seq_;
  uint64_t external_trace_seq_ = 0;
  /// trace_endbox_[dst]: end-ops produced by dst's worker for spans other
  /// shards own; drained by the coordinating thread at the barrier.
  std::vector<std::vector<TraceEndOp>> trace_endbox_;

  /// outbox_[src * shards_ + dst]: written by src's worker during an epoch,
  /// drained by the coordinating thread at the barrier (the barrier's mutex
  /// orders the handoff).
  std::vector<std::vector<PendingDelivery>> outbox_;
  /// Per-shard cross-shard send counters (padded: one worker each).
  struct alignas(64) ShardCounters {
    uint64_t cross_sent = 0;
  };
  std::vector<ShardCounters> shard_counters_;

  std::vector<GlobalTask> global_tasks_;  // min-heap via std::*_heap
  uint64_t global_task_seq_ = 0;

  SimTime now_ = 0.0;
  bool running_ = false;
  uint64_t epochs_ = 0;
  double barrier_wait_seconds_ = 0.0;

  // Worker pool (empty when shards == 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  uint64_t generation_ = 0;
  uint32_t done_count_ = 0;
  SimTime epoch_horizon_ = 0;
  bool exit_ = false;
  std::vector<std::chrono::steady_clock::time_point> finish_times_;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_SHARDED_H_
