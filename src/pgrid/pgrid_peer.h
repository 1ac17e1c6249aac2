#ifndef GRIDVINE_PGRID_PGRID_PEER_H_
#define GRIDVINE_PGRID_PGRID_PEER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/key.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "pgrid/messages.h"
#include "pgrid/retry_policy.h"
#include "pgrid/routing_table.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace gridvine {

/// A logical P-Grid peer: owns a path π(p) (its slice of the binary key
/// space), a routing table with per-level references into complementary
/// subtrees, a replica set σ(p), and the local key-value storage backing the
/// overlay primitives Retrieve(key) and Update(key, value) of the paper
/// (Section 2.1).
///
/// All operations are asynchronous: results are delivered through callbacks
/// once the simulated network round trips complete. Failures surface as
/// non-OK Status (timeout after retries, routing dead ends).
///
/// Reliability layer (the network itself is UDP-like — silent drops, no
/// error feedback): Retrieve/Update/Remove are ack'd requests on one request
/// path, governed by Options::retry — per-attempt timeout with capped
/// exponential backoff and jitter (drawn from the peer's seeded Rng, so runs
/// replay exactly), and two failover paths before an attempt is counted
/// lost:
///   - a re-attempt avoids every first hop the request tried while
///     alternatives exist, so consecutive attempts explore disjoint routes
///     (and, since replicas σ(p) share the destination path, reach replicas
///     of a dead responsible peer);
///   - a *negative* response (routing dead end, hop limit) triggers an
///     immediate failover re-attempt instead of failing the request, as
///     long as attempts remain.
/// Exhaustion always resolves as Status::Timeout (RetryPolicy's terminal
/// status). Update has at-least-one-replica semantics: the ack is sent only
/// after one member of σ(p) — the responsible peer that answered — applied
/// the mutation locally; propagation to the rest of the replica set is
/// asynchronous (probabilistic consistency, as in the paper). Re-applied
/// duplicates (an ack lost, the mutation retried) are absorbed by
/// idempotent local storage.
class PGridPeer : public NetworkNode {
 public:
  struct Options {
    /// Bits of a full-depth key in this overlay instance.
    int key_depth = 16;
    /// Cap on routing references kept per level.
    int max_refs_per_level = 4;
    /// Timeout/backoff/attempt discipline for Retrieve/Update/Remove.
    RetryPolicy retry;
  };

  /// A successful answer: the values a Retrieve found (an Update's or
  /// Remove's reply has none), the hops its request took (0 when this peer
  /// answered itself) and who answered.
  struct Reply {
    std::vector<std::string> values;
    int hops = 0;
    SimTime rtt = 0;  // issue-to-answer simulated seconds
    NodeId responder = kInvalidNode;
  };
  using ReplyCallback = std::function<void(Result<Reply>)>;

  /// The peer registers itself with `network` on construction. `seed`
  /// seeds its CompactRng stream (routing draws, retry jitter).
  PGridPeer(Simulator* sim, Network* network, uint64_t seed, Options options);

  PGridPeer(const PGridPeer&) = delete;
  PGridPeer& operator=(const PGridPeer&) = delete;

  // --- Overlay primitives -------------------------------------------------
  // Each takes an optional `first_hop`: when valid, the first attempt goes
  // straight to that peer instead of a routing-table pick (a caller that
  // remembers who answered for the key last time); later attempts route as
  // usual and avoid it like any tried hop. A peer that is not responsible
  // forwards the request as any hop does, so the answer never depends on
  // it. Ignored when this peer answers locally.

  /// Looks up the values stored under `key` (or, for a shorter key, under
  /// any stored key it prefixes) that start with `value_prefix`, in storage
  /// order; an empty prefix returns every value. The responder filters, so
  /// only matching values travel back: upper layers that keep several record
  /// kinds under one key fetch one kind without shipping the others. Every
  /// re-attempt re-sends the prefix. Responsible-locally lookups answer
  /// immediately.
  void Retrieve(const Key& key, ReplyCallback cb,
                std::string_view value_prefix = {},
                NodeId first_hop = kInvalidNode);

  /// Inserts `value` under `key` at the responsible peer (and its replicas).
  /// Idempotent: an identical (key, value) pair is stored once.
  void Update(const Key& key, const std::string& value, ReplyCallback cb,
              NodeId first_hop = kInvalidNode);

  /// Deletes the (key, value) pair at the responsible peer (and replicas).
  void Remove(const Key& key, const std::string& value, ReplyCallback cb,
              NodeId first_hop = kInvalidNode);

  // --- Extension interface (used by the mediation layer) -------------------

  /// Invoked when an application payload reaches this peer: either a routed
  /// envelope that this peer is responsible for (`origin` = issuing peer,
  /// `hops` = forwards taken) or a direct send (`hops` = -1).
  using ExtensionHandler = std::function<void(
      NodeId origin, std::shared_ptr<const MessageBody> payload, int hops)>;
  void SetExtensionHandler(ExtensionHandler handler) {
    extension_handler_ = std::move(handler);
  }

  /// Routes `payload` to the peer responsible for `key` (delivered to its
  /// extension handler). Fire-and-forget: any acknowledgement or response is
  /// the payload protocol's business. Delivers locally (hops = 0) when this
  /// peer is itself responsible.
  void Route(const Key& key, std::shared_ptr<const MessageBody> payload);

  /// Sends `payload` directly to node `to`'s extension handler.
  void SendDirect(NodeId to, std::shared_ptr<const MessageBody> payload);

  /// Multicasts `payload` to every peer responsible for part of the subtree
  /// `prefix` (each distinct region delivered once; replicas of a region do
  /// not double-receive). Fire-and-forget, like Route.
  void RouteRange(const Key& prefix,
                  std::shared_ptr<const MessageBody> payload);

  /// Offered every local storage mutation (Update, Remove, replica push or
  /// bootstrap insert) before the overlay applies it; returns true to take
  /// the pair, which the overlay then does not store. The mediation layer
  /// keeps its triples in DB_p this way, so a taken pair is not returned by
  /// Retrieve, listed by storage(), counted by StorageSize or
  /// pgrid.storage_entries, or handed over by OnlineExchangeAgent.
  using StorageKeeper =
      std::function<bool(UpdateOp op, const Key& key, const std::string&)>;
  void SetStorageKeeper(StorageKeeper keeper) {
    storage_keeper_ = std::move(keeper);
  }

  /// Auxiliary protocol hook: messages the peer does not handle natively
  /// (maintenance responses, construction-protocol traffic, ...) are offered
  /// to each registered handler in order until one returns true. Used by
  /// MaintenanceAgent and OnlineExchangeAgent.
  using ProtocolHandler =
      std::function<bool(NodeId from, const MessageBody& body)>;
  void AddProtocolHandler(ProtocolHandler handler) {
    protocol_handlers_.push_back(std::move(handler));
  }

  /// Sends a raw message to a known node id (maintenance probes).
  void SendMessage(NodeId to, std::shared_ptr<const MessageBody> body) {
    network_->Send(id_, to, std::move(body));
  }

  // --- NetworkNode --------------------------------------------------------

  void OnMessage(NodeId from, std::shared_ptr<const MessageBody> body) override;

  // --- Identity / bootstrap ----------------------------------------------
  // These are construction-time hooks used by PGridBuilder and the exchange
  // protocol; applications use only the primitives above.

  NodeId id() const { return id_; }
  const Key& path() const { return routing_.path(); }
  void SetPath(const Key& path) { routing_.SetPath(path); }
  RoutingTable* routing() { return &routing_; }
  const RoutingTable& routing() const { return routing_; }

  /// True if `key` falls in this peer's subtree (π(p) prefixes it, or it
  /// prefixes π(p) for short range-style keys).
  bool IsResponsibleFor(const Key& key) const;

  /// Stores a pair locally, bypassing routing (bootstrap / replication).
  void InsertLocal(const Key& key, const std::string& value) {
    ApplyLocal(UpdateOp::kInsert, key, value);
  }
  /// Drops a pair locally.
  void EraseLocal(const Key& key, const std::string& value) {
    ApplyLocal(UpdateOp::kDelete, key, value);
  }

  /// Ordered local storage (key, then insertion order), without the pairs
  /// the storage keeper took.
  const std::multimap<Key, std::string>& storage() const { return storage_; }
  size_t StorageSize() const { return storage_.size(); }

  /// Operation counters for experiments.
  struct Counters {
    uint64_t retrieves_issued = 0;
    uint64_t updates_issued = 0;
    uint64_t forwards = 0;
    uint64_t local_answers = 0;
    uint64_t routing_dead_ends = 0;
    uint64_t timeouts = 0;
    /// Re-attempts after a per-attempt timeout fired.
    uint64_t retries = 0;
    /// Re-attempts triggered by a negative response (dead end / hop limit).
    uint64_t failovers = 0;
    /// Application payloads delivered to this peer's extension handler
    /// (routed envelopes, range showers, direct sends) — the per-peer
    /// request-serving load the replica-imbalance measurements read.
    uint64_t extension_deliveries = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Adds this peer's counters into `metrics` under "pgrid.*".
  void PublishMetrics(MetricsRegistry* metrics) const;

  /// Bytes held by this peer (object, routing table, overlay storage,
  /// in-flight request map), by capacity; see common/mem_estimate.h.
  size_t MemoryFootprint() const;

  /// Requests issued here and not yet resolved (answered, failed or timed
  /// out). The chaos harness asserts this drains to zero.
  size_t PendingRequests() const { return pending_.size(); }

  const Options& options() const { return options_; }

  /// The peer's random stream (tests check how it was seeded).
  const CompactRng& rng() const { return rng_; }

 private:
  /// One outstanding Retrieve, Update or Remove.
  struct Pending {
    ReplyCallback cb;
    Key key;
    /// What every attempt's request carries: the value written or removed,
    /// or a retrieve's value prefix.
    std::string value;
    /// Empty for a retrieve.
    std::optional<UpdateOp> op;
    int attempts = 0;
    SimTime started = 0;
    /// First hop of every attempt so far; a re-attempt avoids ALL of them
    /// while untried alternatives exist (falling back to avoiding only the
    /// most recent), so retries explore disjoint routes and a failover never
    /// re-picks a replica that already timed out for this flight.
    std::vector<NodeId> tried_hops;
    /// Operation span ("op.retrieve"/"op.update"/"op.remove") — the parent
    /// of every attempt's request flight span and retry/failover markers.
    TraceCtx span;
  };

  uint64_t NextRequestId() { return (uint64_t(id_) << 32) | next_seq_++; }

  /// Collects stored values for `key` (exact or prefix semantics) that
  /// start with `value_prefix`, in storage order.
  std::vector<std::string> LocalLookup(const Key& key,
                                       std::string_view value_prefix) const;
  /// Every local mutation: offered to the storage keeper first, else
  /// applied to storage_ (an identical pair is stored once).
  void ApplyLocal(UpdateOp op, const Key& key, const std::string& value);
  void ReplicateToSiblings(UpdateOp op, const Key& key,
                           const std::string& value);
  /// Serves a request this peer is responsible for: a retrieve's values
  /// (`value` is the prefix), or an update applied here and pushed to the
  /// replica set (no values).
  std::vector<std::string> Answer(const Key& key, const std::string& value,
                                  std::optional<UpdateOp> op);

  /// The one request path: answers locally when this peer is responsible,
  /// else opens a Pending record and sends the first attempt (to
  /// `first_hop` when valid).
  void Issue(const Key& key, std::string value, std::optional<UpdateOp> op,
             ReplyCallback cb, NodeId first_hop);
  /// Sends the next attempt: to `first_hop` when valid (attempt 1 only),
  /// else to a routing-table pick that avoids every tried hop.
  void SendAttempt(uint64_t request_id, NodeId first_hop = kInvalidNode);
  void ArmTimeout(uint64_t request_id);
  void FailPending(uint64_t request_id, Status status);
  /// Negative response for an outstanding request: re-attempt if the retry
  /// budget allows, otherwise fail. Returns true if a re-attempt was made.
  bool FailoverPending(uint64_t request_id);

  /// The network's tracer while tracing is live, else nullptr.
  Tracer* LiveTracer() const;
  /// Opens an operation span parented on the ambient delivery context (a
  /// root when this peer originates the trace); invalid when not tracing.
  TraceCtx StartOpSpan(std::string_view name);
  /// Ends an op span with its outcome annotations.
  void EndOpSpan(TraceCtx span, bool ok, int hops, int attempts);

  void HandleRoutedEnvelope(NodeId from, const RoutedEnvelope& env);
  void HandleRangeEnvelope(NodeId from, const RangeEnvelope& env);
  /// Local delivery + level-wise splitting of a range multicast.
  void ShowerRange(const RangeEnvelope& env);
  void HandleRequest(NodeId from, const KeyRequest& req);
  void HandleResponse(const KeyResponse& resp);

  /// The one forwarding step, for a request or envelope this peer cannot
  /// answer: past the hop limit, or with no next hop that avoids the sender
  /// `from`, it fails and says why; otherwise it sends `msg`'s copy with
  /// hops + 1 on and returns OK.
  template <typename Msg>
  Status Forward(NodeId from, const Key& key, const Msg& msg);

  Simulator* sim_;
  Network* network_;
  /// One machine word of generator state (see common/rng.h CompactRng), so
  /// a bare peer carries no 2.5 KB mt19937_64.
  CompactRng rng_;
  Options options_;
  NodeId id_;
  RoutingTable routing_;
  std::multimap<Key, std::string> storage_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint32_t next_seq_ = 0;
  Counters counters_;
  ExtensionHandler extension_handler_;
  StorageKeeper storage_keeper_;
  std::vector<ProtocolHandler> protocol_handlers_;
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_PGRID_PEER_H_
