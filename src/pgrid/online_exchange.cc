#include "pgrid/online_exchange.h"

#include <algorithm>
#include <set>

#include "pgrid/messages.h"

namespace gridvine {

namespace {

/// Random-walk length for partner sampling.
constexpr int kWalkTtl = 5;

/// Partner sampling: a TTL-bounded random walk over routing links.
struct WalkRequest : MessageBody {
  uint64_t txn = 0;
  NodeId initiator = kInvalidNode;
  int ttl = 0;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.walk");
    return t;
  }
  size_t SizeBytes() const override { return 16; }
};

struct WalkResult : MessageBody {
  uint64_t txn = 0;
  NodeId endpoint = kInvalidNode;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.walk_result");
    return t;
  }
  size_t SizeBytes() const override { return 12; }
};

/// The action the responder decided on (the CoopIS'01 case analysis).
enum class ExchangeAction {
  kSplit,       ///< equal paths, overloaded: initiator appends 0, responder 1
  kReplicate,   ///< equal paths, light: become replicas, sync content
  kSpecialize,  ///< initiator's path was a prefix: it appends `split_bit`
  kRefsOnly,    ///< divergent paths (or responder specialized): swap refs
};

struct ExchangeHello : MessageBody {
  uint64_t txn = 0;
  NodeId initiator = kInvalidNode;
  Key path;
  uint64_t load = 0;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.exch_hello");
    return t;
  }
  size_t SizeBytes() const override { return 24; }
};

struct ExchangeReply : MessageBody {
  uint64_t txn = 0;
  NodeId responder = kInvalidNode;
  /// The responder's path AFTER applying its side of the action.
  Key responder_path;
  ExchangeAction action = ExchangeAction::kRefsOnly;
  int split_bit = 0;  // kSpecialize: the bit the initiator appends
  /// Entries now belonging to the initiator.
  std::vector<std::pair<std::string, std::string>> entries;
  /// Ref gossip: the responder's (level, ref) pairs above the divergence
  /// level. Both peers share that prefix, so each is a valid ref for the
  /// initiator at the same level.
  std::vector<std::pair<int, NodeId>> gossip_refs;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.exch_reply");
    return t;
  }
  size_t SizeBytes() const override {
    size_t n = 32 + gossip_refs.size() * 5;
    for (const auto& [k, v] : entries) n += k.size() / 8 + v.size();
    return n;
  }
};

struct ExchangeCommit : MessageBody {
  uint64_t txn = 0;
  std::vector<std::pair<std::string, std::string>> entries;
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("pgrid.exch_commit");
    return t;
  }
  size_t SizeBytes() const override {
    size_t n = 12;
    for (const auto& [k, v] : entries) n += k.size() / 8 + v.size();
    return n;
  }
};

}  // namespace

OnlineExchangeAgent::OnlineExchangeAgent(Simulator* sim, PGridPeer* peer,
                                         Rng rng, Options options)
    : sim_(sim), peer_(peer), rng_(rng), options_(options) {
  peer_->AddProtocolHandler([this](NodeId from, const MessageBody& body) {
    return OnMessage(from, body);
  });
}

void OnlineExchangeAgent::AddSeedContact(NodeId id) {
  if (id != peer_->id() &&
      std::find(seeds_.begin(), seeds_.end(), id) == seeds_.end()) {
    seeds_.push_back(id);
  }
}

void OnlineExchangeAgent::Start() {
  running_ = true;
  ScheduleNext();
}

void OnlineExchangeAgent::ScheduleNext() {
  SimTime delay = options_.period * rng_.UniformDouble(0.5, 1.5);
  sim_->Schedule(delay, [this] {
    if (!running_) return;
    InitiateEncounter();
    ScheduleNext();
  });
}

std::vector<NodeId> OnlineExchangeAgent::KnownContacts() const {
  std::set<NodeId> out(seeds_.begin(), seeds_.end());
  const RoutingTable& routing = *peer_->routing();
  for (int level = 0; level < routing.levels(); ++level) {
    for (NodeId ref : routing.RefsAt(level)) out.insert(ref);
  }
  for (NodeId rep : routing.replicas()) out.insert(rep);
  out.erase(peer_->id());
  return std::vector<NodeId>(out.begin(), out.end());
}

void OnlineExchangeAgent::InitiateEncounter() {
  auto contacts = KnownContacts();
  if (contacts.empty()) return;
  ++stats_.encounters_started;
  auto walk = std::make_shared<WalkRequest>();
  walk->txn = next_txn_++;
  walk->initiator = peer_->id();
  walk->ttl = kWalkTtl;
  peer_->SendMessage(rng_.PickOne(contacts), std::move(walk));
}

void OnlineExchangeAgent::EncounterWith(NodeId partner) {
  ++stats_.encounters_started;
  SendHello(next_txn_++, partner);
}

void OnlineExchangeAgent::SendHello(uint64_t txn, NodeId partner) {
  auto hello = std::make_shared<ExchangeHello>();
  hello->txn = txn;
  hello->initiator = peer_->id();
  hello->path = peer_->path();
  hello->load = peer_->StorageSize();
  peer_->SendMessage(partner, std::move(hello));
}

void OnlineExchangeAgent::ApplyEntries(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  for (const auto& [bits, value] : entries) {
    auto key = Key::FromBits(bits);
    if (key.ok()) peer_->InsertLocal(*key, value);
  }
}

std::vector<std::pair<std::string, std::string>>
OnlineExchangeAgent::EvictEntriesFor(const Key& their_path) {
  std::vector<std::pair<Key, std::string>> to_move;
  for (const auto& [k, v] : peer_->storage()) {
    bool theirs = their_path.IsPrefixOf(k) || k.IsPrefixOf(their_path);
    if (!peer_->IsResponsibleFor(k) && theirs) to_move.emplace_back(k, v);
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [k, v] : to_move) {
    peer_->EraseLocal(k, v);
    out.emplace_back(k.bits(), v);
  }
  return out;
}

bool OnlineExchangeAgent::OnMessage(NodeId from, const MessageBody& body) {
  // --- Random walk ----------------------------------------------------------
  if (const auto* walk = dynamic_cast<const WalkRequest*>(&body)) {
    if (walk->ttl <= 0 && walk->initiator != peer_->id()) {
      // This peer is the sampled partner: report back to the initiator.
      auto result = std::make_shared<WalkResult>();
      result->txn = walk->txn;
      result->endpoint = peer_->id();
      peer_->SendMessage(walk->initiator, std::move(result));
      return true;
    }
    // Still walking — or the walk landed back on its initiator (common in
    // tiny networks), in which case it bounces one extra hop so the sampled
    // partner is never the initiator itself.
    auto contacts = KnownContacts();
    // Avoid trivially bouncing straight back when alternatives exist.
    if (contacts.size() > 1) {
      contacts.erase(std::remove(contacts.begin(), contacts.end(), from),
                     contacts.end());
    }
    if (contacts.empty()) {
      if (walk->initiator != peer_->id()) {
        auto result = std::make_shared<WalkResult>();
        result->txn = walk->txn;
        result->endpoint = peer_->id();
        peer_->SendMessage(walk->initiator, std::move(result));
      }
      return true;
    }
    auto fwd = std::make_shared<WalkRequest>(*walk);
    fwd->ttl = std::max(0, walk->ttl - 1);
    peer_->SendMessage(rng_.PickOne(contacts), std::move(fwd));
    return true;
  }
  if (const auto* result_check = dynamic_cast<const WalkResult*>(&body);
      result_check != nullptr && result_check->endpoint == peer_->id()) {
    return true;  // degenerate self-report (single-contact corner)
  }
  if (const auto* result = dynamic_cast<const WalkResult*>(&body)) {
    if (result->endpoint == peer_->id()) return true;  // walked back home
    SendHello(result->txn, result->endpoint);
    return true;
  }

  // --- Exchange transaction ---------------------------------------------------
  if (const auto* hello = dynamic_cast<const ExchangeHello*>(&body)) {
    const Key& mine = peer_->path();
    const Key& theirs = hello->path;
    int l = mine.CommonPrefixLength(theirs);

    auto reply = std::make_shared<ExchangeReply>();
    reply->txn = hello->txn;
    reply->responder = peer_->id();

    if (l == mine.length() && l == theirs.length()) {
      // Identical paths: split or replicate.
      size_t joint = peer_->StorageSize() + hello->load;
      bool can_deepen = mine.length() < peer_->options().key_depth;
      if (joint > options_.max_local_keys && can_deepen) {
        int level = mine.length();
        peer_->SetPath(mine.WithBit(1));
        peer_->routing()->AddRef(level, hello->initiator);
        peer_->routing()->RemoveReplica(hello->initiator);
        reply->action = ExchangeAction::kSplit;
        // Entries now in the initiator's half (bit 0 at `level`).
        Key initiator_path = theirs.WithBit(0);
        reply->entries = EvictEntriesFor(initiator_path);
        ++stats_.splits;
      } else {
        peer_->routing()->AddReplica(hello->initiator);
        reply->action = ExchangeAction::kReplicate;
        for (const auto& [k, v] : peer_->storage()) {
          reply->entries.emplace_back(k.bits(), v);
        }
        ++stats_.replications;
      }
    } else if (l == theirs.length()) {
      // Initiator's path is a prefix of ours: it specializes away from us.
      int level = theirs.length();
      reply->action = ExchangeAction::kSpecialize;
      reply->split_bit = 1 - mine.bit(level);
      peer_->routing()->AddRef(level, hello->initiator);
      reply->entries = EvictEntriesFor(theirs.WithBit(reply->split_bit));
      ++stats_.specializations;
    } else if (l == mine.length()) {
      // Our path is a prefix of the initiator's: WE specialize.
      int level = mine.length();
      peer_->SetPath(mine.WithBit(1 - theirs.bit(level)));
      peer_->routing()->AddRef(level, hello->initiator);
      reply->action = ExchangeAction::kRefsOnly;
      reply->entries = EvictEntriesFor(theirs);
      ++stats_.specializations;
    } else {
      // Divergent paths: swap refs at the divergence level + gossip.
      peer_->routing()->AddRef(l, hello->initiator);
      reply->action = ExchangeAction::kRefsOnly;
      for (int level = 0; level < l; ++level) {
        for (NodeId ref : peer_->routing()->RefsAt(level)) {
          reply->gossip_refs.emplace_back(level, ref);
        }
      }
      reply->entries = EvictEntriesFor(theirs);
      ++stats_.ref_exchanges;
    }
    reply->responder_path = peer_->path();
    peer_->SendMessage(hello->initiator, std::move(reply));
    return true;
  }

  if (const auto* reply = dynamic_cast<const ExchangeReply*>(&body)) {
    const Key mine = peer_->path();
    const Key& theirs = reply->responder_path;
    switch (reply->action) {
      case ExchangeAction::kSplit: {
        int level = mine.length();
        peer_->SetPath(mine.WithBit(0));
        peer_->routing()->AddRef(level, reply->responder);
        peer_->routing()->RemoveReplica(reply->responder);
        ++stats_.splits;
        break;
      }
      case ExchangeAction::kReplicate: {
        peer_->routing()->AddReplica(reply->responder);
        ++stats_.replications;
        break;
      }
      case ExchangeAction::kSpecialize: {
        int level = mine.length();
        peer_->SetPath(mine.WithBit(reply->split_bit));
        peer_->routing()->AddRef(level, reply->responder);
        ++stats_.specializations;
        break;
      }
      case ExchangeAction::kRefsOnly: {
        int l = peer_->path().CommonPrefixLength(theirs);
        if (l < peer_->path().length() && l < theirs.length()) {
          peer_->routing()->AddRef(l, reply->responder);
        } else if (peer_->path() == theirs) {
          peer_->routing()->AddReplica(reply->responder);
        }
        ++stats_.ref_exchanges;
        break;
      }
    }
    ApplyEntries(reply->entries);
    // Paths only grow, so the prefix shared at Hello time still holds.
    for (const auto& [level, ref] : reply->gossip_refs) {
      if (ref != peer_->id()) peer_->routing()->AddRef(level, ref);
    }

    // Commit: hand the responder whatever we hold that is now theirs (for
    // replicate: everything, so the replica converges to the union).
    auto commit = std::make_shared<ExchangeCommit>();
    commit->txn = reply->txn;
    if (reply->action == ExchangeAction::kReplicate) {
      for (const auto& [k, v] : peer_->storage()) {
        commit->entries.emplace_back(k.bits(), v);
      }
    } else {
      commit->entries = EvictEntriesFor(theirs);
    }
    peer_->SendMessage(reply->responder, std::move(commit));
    return true;
  }

  if (const auto* commit = dynamic_cast<const ExchangeCommit*>(&body)) {
    ApplyEntries(commit->entries);
    return true;
  }
  return false;
}

}  // namespace gridvine
