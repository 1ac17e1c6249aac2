#ifndef GRIDVINE_SIM_NETWORK_H_
#define GRIDVINE_SIM_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "sim/fault_plan.h"
#include "sim/latency.h"
#include "sim/msg_type.h"
#include "sim/simulator.h"

namespace gridvine {

class MetricsRegistry;

/// Identifies a node (machine) on the simulated network.
/// (Declared in sim/fault_plan.h; redeclared here for readers.)
using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// Base class for all simulated message payloads. Payloads are passed by
/// shared_ptr within the single simulation process; SizeBytes() lets the
/// network account for (approximate) wire traffic without serializing.
struct MessageBody {
  virtual ~MessageBody() = default;
  /// Approximate serialized size, for traffic accounting.
  virtual size_t SizeBytes() const { return 64; }
  /// Interned type tag for tracing/statistics. Implementations intern the
  /// name once in a function-local static, e.g.
  ///   static const MsgType t = MsgType::Intern("pgrid.retrieve");
  ///   return t;
  /// so the per-message cost is an integer copy, not a string allocation.
  virtual MsgType TypeTag() const = 0;
  /// Causal context set by the sender before Send(). When valid it becomes
  /// the parent of this message's flight span (explicit wins over the
  /// ambient delivery context); envelope types must copy their payload's ctx
  /// here so Send() — which only sees the envelope — parents correctly.
  TraceCtx trace_ctx{};
};

/// A node attached to the network: receives messages delivered to its id.
class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  /// Invoked by the network when a message arrives (the node is alive).
  virtual void OnMessage(NodeId from,
                         std::shared_ptr<const MessageBody> body) = 0;
};

/// Cumulative traffic counters.
///
/// Drop accounting contract: messages_sent, bytes_sent and the per-type
/// counters are recorded at Send() time and therefore INCLUDE messages that
/// are dropped — whether at send time (dead endpoint, loss, fault plan) or
/// in flight (destination died before delivery). They measure offered load,
/// what the sender put on the wire. messages_delivered counts only actual
/// deliveries and messages_dropped counts every drop. A fault-plan duplicate
/// is an extra in-flight copy that was never Send()-counted but does get
/// delivered or dropped, so the drain invariant (checked by the chaos
/// harness) is:
///   messages_sent + messages_duplicated == messages_delivered
///                                          + messages_dropped.
/// Drops are further attributed by cause (the drops_* counters, which sum to
/// messages_dropped) and by message type (drops_by_type).
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;  // every drop, all causes
  uint64_t messages_duplicated = 0;  // extra copies created by a FaultPlan
  uint64_t bytes_sent = 0;
  /// Cause attribution; drops_endpoint + drops_loss + drops_burst +
  /// drops_partition == messages_dropped.
  uint64_t drops_endpoint = 0;   // endpoint dead/unknown (send or delivery)
  uint64_t drops_loss = 0;       // base independent loss
  uint64_t drops_burst = 0;      // FaultPlan loss burst
  uint64_t drops_partition = 0;  // FaultPlan partition
  /// Per-type counters indexed by MsgType::id(); ids beyond a vector's size
  /// are implicitly zero (the vectors grow lazily on first sight of a type).
  std::vector<uint64_t> messages_by_type;
  std::vector<uint64_t> bytes_by_type;
  /// Per-type drop attribution (same indexing; counts drops of all causes).
  std::vector<uint64_t> drops_by_type;

  /// Name-resolved accessors for benches and tests (0 for unseen types).
  uint64_t MessagesForType(std::string_view name) const;
  uint64_t BytesForType(std::string_view name) const;
  uint64_t DropsForType(std::string_view name) const;
  /// All non-zero per-type message counts keyed by resolved name.
  std::map<std::string, uint64_t> MessagesByTypeName() const;

  /// Adds these counters into `metrics` under "net.*" (plus per-type
  /// "net.msg.<type>.*").
  void Publish(MetricsRegistry* metrics) const;

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

/// The simulated transport: point-to-point delivery with sampled latency and
/// optional loss; respects node liveness (churn). The network plays the role
/// of the "Internet layer" in the paper's Figure 1.
///
/// AddNode and Send are virtual: peers hold a Network* and work unchanged
/// whether it is this transport over a sequence-keyed Simulator or the
/// content-keyed engine (sim/sharded.h), which derives from it. Both run the
/// one send policy (Transmit) and the one delivery policy (Deliver) below;
/// the keyed engine supplies only its random streams, its event keys and
/// who acts during a delivery.
///
/// Hot-path note: Send() schedules a plain-struct delivery record (not a
/// capturing lambda) that fits EventFn's inline buffer, and type accounting
/// is two integer-indexed vector bumps — steady-state send+delivery performs
/// no heap allocation beyond the message body the caller already built.
class Network {
 public:
  /// `loss_probability` drops each message independently (default lossless).
  Network(Simulator* sim, std::unique_ptr<LatencyModel> latency, Rng rng,
          double loss_probability = 0.0);
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node under a fresh id; the node starts alive.
  /// The caller retains ownership of `node`, which must outlive the network.
  virtual NodeId AddNode(NetworkNode* node);

  /// Marks a node up/down (churn), at any time, from inside an event too.
  /// Messages to a down node are dropped, including those already in
  /// flight; a down node sends nothing.
  void SetAlive(NodeId id, bool alive) {
    if (id < alive_.size()) alive_[id] = alive ? 1 : 0;
  }
  bool IsAlive(NodeId id) const { return id < alive_.size() && alive_[id]; }

  /// Sends `body` from `from` to `to`. Delivery is scheduled after a sampled
  /// latency; the message is dropped if either endpoint is dead at send time
  /// or the destination is dead at delivery time (no error feedback, like
  /// UDP — timeouts are the caller's job; see src/pgrid's reliable request
  /// layer for the retrying wrapper). See NetworkStats for which counters
  /// include drops.
  virtual void Send(NodeId from, NodeId to,
                    std::shared_ptr<const MessageBody> body);

  /// Installs (or clears, with nullptr) a fault-injection plan. The plan is
  /// consulted on every Send() after liveness and base loss; it draws from
  /// the send's own stream so faulted runs stay seed-deterministic. The
  /// network owns the plan; `fault_plan()` lets a scenario driver add
  /// windows mid-run.
  void SetFaultPlan(std::unique_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// Number of registered nodes (alive or not).
  size_t size() const { return nodes_.size(); }

  Simulator* sim() { return sim_; }
  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats(); }

  /// Attaches (or detaches, with nullptr) a tracer. While the tracer is
  /// enabled, every Send() whose causal parent is known — an explicit
  /// body->trace_ctx, or the ambient context of the delivery being handled —
  /// opens a flight span named after the message type, ended at delivery
  /// (duration = per-hop latency) or annotated with the drop cause. Untraced
  /// traffic (no parent, e.g. background maintenance) records nothing.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() { return tracer_; }
  /// The flight-span context of the delivery currently being handled (the
  /// invalid ctx outside OnMessage, or when that message was untraced).
  /// Handlers use this to parent reply spans without plumbing ctx by hand.
  TraceCtx ambient_ctx() const { return delivery_ctx_; }

  /// Adds this network's cumulative counters into `metrics` under "net.*"
  /// (plus per-type "net.msg.<type>.*").
  void PublishMetrics(MetricsRegistry* metrics) const;

 protected:
  /// Bytes of heap held by the node table.
  size_t NodeTableBytes() const {
    return nodes_.capacity() * sizeof(NetworkNode*) + alive_.capacity();
  }

  /// The send policy both engines run, in a fixed order: offered-load
  /// accounting; the flight span, parented on the body's explicit ctx or
  /// else on the delivery being handled; the endpoint check, base loss and
  /// the fault plan's partition, burst and duplicate (whose span is a child
  /// of the original's); then each copy's latency draw followed by its spike
  /// draw, the duplicate's first, and the copy is scheduled on sim() at once
  /// — so the duplicate is also scheduled first. Every draw comes from
  /// `rng`: this network's Rng, or the acting node's SmallRng on the keyed
  /// engine. `net` is `this`, typed as the engine whose Deliver runs the
  /// copies.
  template <typename Net, typename AnyRng>
  void Transmit(Net* net, NodeId from, NodeId to,
                std::shared_ptr<const MessageBody> body, AnyRng* rng);

  /// The delivery policy both engines run. Liveness is re-checked here: a
  /// destination that died in flight is an endpoint drop. Counts the
  /// delivery or the drop, ends a traced flight at the current simulated
  /// time and runs the handler with the flight as the ambient ctx, so
  /// anything it sends parents under this hop.
  void Deliver(NodeId from, NodeId to, std::shared_ptr<const MessageBody> body,
               TraceCtx flight);

 private:
  /// The scheduled half of a send: a 32-byte record, inline in EventFn.
  /// shared_ptr is not trivially copyable but holds no self-references, so
  /// the record is safe to relocate bytewise (EventFn's memcpy fast path).
  template <typename Net>
  struct Delivery {
    static constexpr bool kTriviallyRelocatable = true;
    Net* net;
    NodeId from;
    NodeId to;
    std::shared_ptr<const MessageBody> body;
    void operator()() { net->Deliver(from, to, std::move(body), TraceCtx{}); }
  };

  /// Delivery with its flight span aboard (48 bytes, exactly EventFn's
  /// inline buffer — growing it spills every traced delivery to the heap).
  /// Scheduled only for traced sends, so the untraced hot path keeps the
  /// smaller record (16 fewer bytes copied into the event queue per message).
  template <typename Net>
  struct TracedDelivery {
    static constexpr bool kTriviallyRelocatable = true;
    Net* net;
    NodeId from;
    NodeId to;
    std::shared_ptr<const MessageBody> body;
    TraceCtx ctx;  ///< flight span; always valid here
    void operator()() { net->Deliver(from, to, std::move(body), ctx); }
  };

  /// Offered-load accounting (messages_sent, bytes_sent, per-type counters).
  void CountSend(MsgType type, size_t bytes);
  void CountDrop(MsgType type, DropCause cause);
  /// Annotates `flight` with its drop cause (if any) and ends it at `at`.
  void CloseFlight(TraceCtx flight, SimTime at,
                   std::optional<DropCause> cause);

  NetworkStats stats_;
  Tracer* tracer_ = nullptr;
  /// Flight ctx of the delivery whose OnMessage is on the stack right now.
  TraceCtx delivery_ctx_{};
  Simulator* sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng rng_;
  double loss_probability_;
  std::unique_ptr<FaultPlan> fault_plan_;
  /// Node table, indexed by NodeId. Two arrays, not one of {node, alive}
  /// pairs: a byte per liveness flag instead of a padded 16-byte slot.
  std::vector<NetworkNode*> nodes_;
  std::vector<uint8_t> alive_;
};

template <typename Net, typename AnyRng>
void Network::Transmit(Net* net, NodeId from, NodeId to,
                       std::shared_ptr<const MessageBody> body, AnyRng* rng) {
  const size_t bytes = body->SizeBytes();
  const MsgType type = body->TypeTag();
  const SimTime now = sim_->Now();
  const FaultPlan* plan = fault_plan_.get();
  CountSend(type, bytes);

  // Flight span. No parent — background traffic nobody is tracing — records
  // nothing, and with no tracer at all this whole block is one pointer test
  // (the zero-allocation default). Opening a span draws no random number
  // and touches no event counter, so traced runs stay bit-identical.
  TraceCtx flight{};
  if (tracer_ != nullptr && tracer_->enabled()) {
    const TraceCtx parent =
        body->trace_ctx.valid() ? body->trace_ctx : delivery_ctx_;
    if (parent.valid()) {
      flight = tracer_->StartSpan(type.name(), parent);
      tracer_->Annotate(flight, "from", double(from));
      tracer_->Annotate(flight, "to", double(to));
      tracer_->Annotate(flight, "bytes", double(bytes));
    }
  }
  auto drop = [&](DropCause cause) {
    CountDrop(type, cause);
    if (flight.valid()) CloseFlight(flight, now, cause);
  };
  // Latency, then spike: two statements, so the draw order is fixed.
  auto emit = [&](std::shared_ptr<const MessageBody> copy, TraceCtx span) {
    SimTime delay = latency_->Sample(rng);
    if (plan != nullptr) delay += plan->ExtraLatency(now, rng);
    const SimTime at = now + delay;
    if (span.valid()) {
      sim_->ScheduleAt(
          at, TracedDelivery<Net>{net, from, to, std::move(copy), span});
    } else {
      sim_->ScheduleAt(at, Delivery<Net>{net, from, to, std::move(copy)});
    }
  };

  if (!IsAlive(from) || !IsAlive(to)) return drop(DropCause::kEndpoint);
  if (loss_probability_ > 0 && rng->Bernoulli(loss_probability_)) {
    return drop(DropCause::kLoss);
  }
  if (plan != nullptr) {
    DropCause cause;
    if (plan->ShouldDrop(now, from, to, rng, &cause)) return drop(cause);
    if (plan->ShouldDuplicate(rng)) {
      ++stats_.messages_duplicated;
      // The extra copy gets its own flight span, a child of the original's
      // (the duplicate exists because that send happened), so duplicated
      // deliveries stay attributable without double-counting the original.
      TraceCtx dup{};
      if (flight.valid()) {
        dup = tracer_->StartSpan(type.name(), flight);
        tracer_->Annotate(dup, "duplicate", 1.0);
      }
      emit(body, dup);
    }
  }
  emit(std::move(body), flight);
}

}  // namespace gridvine

#endif  // GRIDVINE_SIM_NETWORK_H_
