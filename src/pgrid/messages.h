#ifndef GRIDVINE_PGRID_MESSAGES_H_
#define GRIDVINE_PGRID_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/key.h"
#include "common/status.h"
#include "sim/network.h"

namespace gridvine {

/// Kinds of mutation carried by an update request. The paper folds
/// insertion, modification and deletion into the single Update() primitive;
/// we distinguish insert/delete and express modification as delete+insert.
enum class UpdateOp { kInsert, kDelete };

/// The paper's two primitives on the wire. The request travels
/// peer-to-peer via prefix routing until it reaches a peer responsible for
/// `key`, which answers the `origin` directly. Without `op` it is a
/// Retrieve and `value` is the prefix every returned value starts with
/// (all values when it is empty); with `op` it is an Update and `value` is
/// the value inserted or deleted.
struct KeyRequest : MessageBody {
  uint64_t request_id = 0;
  Key key;
  std::string value;
  std::optional<UpdateOp> op;
  NodeId origin = kInvalidNode;
  int hops = 0;

  MsgType TypeTag() const override {
    if (op) {
      static const MsgType update = MsgType::Intern("pgrid.update");
      return update;
    }
    static const MsgType retrieve = MsgType::Intern("pgrid.retrieve");
    return retrieve;
  }
  size_t SizeBytes() const override {
    return 24 + static_cast<size_t>(key.length()) / 8 + value.size();
  }
};

/// Answer to a KeyRequest, sent straight back to the origin: a retrieve's
/// values, or an update's acknowledgement (`ack`, a flat 64 bytes). A
/// non-OK status is a negative answer (routing dead end, hop limit).
struct KeyResponse : MessageBody {
  uint64_t request_id = 0;
  bool ack = false;
  Status status;
  std::vector<std::string> values;
  int hops = 0;
  NodeId responder = kInvalidNode;

  MsgType TypeTag() const override {
    if (ack) {
      static const MsgType ack_t = MsgType::Intern("pgrid.update_ack");
      return ack_t;
    }
    static const MsgType resp = MsgType::Intern("pgrid.retrieve_resp");
    return resp;
  }
  size_t SizeBytes() const override {
    if (ack) return MessageBody::SizeBytes();
    size_t n = 32;
    for (const auto& v : values) n += v.size() + 4;
    return n;
  }
};

/// Wraps an application-level payload that must be delivered to the peer
/// responsible for `key` (prefix routing). Lets upper layers (the semantic
/// mediation layer) execute logic *at* the destination rather than pulling
/// raw values — e.g. evaluating a triple-pattern selection on the
/// destination's local database.
struct RoutedEnvelope : MessageBody {
  Key key;
  NodeId origin = kInvalidNode;
  int hops = 0;
  std::shared_ptr<const MessageBody> payload;

  MsgType TypeTag() const override {
    static const MsgType outer = MsgType::Intern("pgrid.routed");
    static const MsgType null_inner = MsgType::Intern("null");
    return MsgType::Composite(outer,
                              payload ? payload->TypeTag() : null_inner);
  }
  size_t SizeBytes() const override {
    return 16 + (payload ? payload->SizeBytes() : 0);
  }
};

/// Coalesces several application payloads headed to the same key region into
/// one wire message (the serving layer's cross-query batching): requests from
/// different in-flight queries accumulate during a short batching window and
/// travel as one routed envelope. The receiving peer's extension layer
/// unpacks the parts, dispatches each through its normal handler, and sends
/// the collected answers back to `reply_to` as another BatchEnvelope. Parts
/// are heterogeneous, so the tag is not a composite — per-part accounting
/// happens at the application layer.
struct BatchEnvelope : MessageBody {
  NodeId reply_to = kInvalidNode;
  std::vector<std::shared_ptr<const MessageBody>> parts;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.batch");
    return t;
  }
  size_t SizeBytes() const override {
    size_t n = 12;
    for (const auto& p : parts) n += (p ? p->SizeBytes() : 0) + 4;
    return n;
  }
};

/// Multicast of an application payload to EVERY peer whose region intersects
/// the subtree `prefix` (P-Grid's "shower" broadcast): the envelope first
/// routes toward the subtree, then splits level by level along the receiving
/// peers' paths. `min_level` marks the shallowest level the receiving peer
/// may still split at — the splitting discipline that delivers to each
/// region exactly once. Used for range queries over the order-preserving
/// key space.
struct RangeEnvelope : MessageBody {
  Key prefix;
  int min_level = 0;
  NodeId origin = kInvalidNode;
  int hops = 0;
  std::shared_ptr<const MessageBody> payload;

  MsgType TypeTag() const override {
    static const MsgType outer = MsgType::Intern("pgrid.range");
    static const MsgType null_inner = MsgType::Intern("null");
    return MsgType::Composite(outer,
                              payload ? payload->TypeTag() : null_inner);
  }
  size_t SizeBytes() const override {
    return 20 + (payload ? payload->SizeBytes() : 0);
  }
};

/// Point-to-point application payload (e.g. query answers flowing straight
/// back to the query origin).
struct DirectEnvelope : MessageBody {
  std::shared_ptr<const MessageBody> payload;

  MsgType TypeTag() const override {
    static const MsgType outer = MsgType::Intern("pgrid.direct");
    static const MsgType null_inner = MsgType::Intern("null");
    return MsgType::Composite(outer,
                              payload ? payload->TypeTag() : null_inner);
  }
  size_t SizeBytes() const override {
    return 4 + (payload ? payload->SizeBytes() : 0);
  }
};

/// Liveness/identity probe used by overlay maintenance. The response carries
/// the responder's current path so the prober can (re)classify the peer
/// against its own routing invariant.
struct PingRequest : MessageBody {
  uint64_t nonce = 0;
  NodeId origin = kInvalidNode;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.ping");
    return t;
  }
  size_t SizeBytes() const override { return 12; }
};

struct PingResponse : MessageBody {
  uint64_t nonce = 0;
  Key path;
  NodeId responder = kInvalidNode;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.pong");
    return t;
  }
  size_t SizeBytes() const override {
    return 16 + static_cast<size_t>(path.length()) / 8;
  }
};

/// Asks a peer for routing-table candidates (ref gossip); the response lists
/// the responder's references and replicas, which the requester then probes
/// before adopting.
struct RefsRequest : MessageBody {
  uint64_t nonce = 0;
  NodeId origin = kInvalidNode;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.refs_req");
    return t;
  }
  size_t SizeBytes() const override { return 12; }
};

struct RefsResponse : MessageBody {
  uint64_t nonce = 0;
  Key responder_path;
  std::vector<NodeId> candidates;
  NodeId responder = kInvalidNode;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.refs_resp");
    return t;
  }
  size_t SizeBytes() const override { return 16 + candidates.size() * 4; }
};

/// One-way replication of a mutation from a responsible peer to its replicas
/// σ(p); fire-and-forget (probabilistic consistency, as in the paper).
struct ReplicaUpdate : MessageBody {
  Key key;
  std::string value;
  UpdateOp op = UpdateOp::kInsert;

  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.replica_update");
    return t;
  }
  size_t SizeBytes() const override {
    return 8 + static_cast<size_t>(key.length()) / 8 + value.size();
  }
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_MESSAGES_H_
