#include "pgrid/maintenance.h"

#include <set>

namespace gridvine {

namespace {

/// Consecutive missed probes before a reference is evicted — absorbs
/// transient churn (a peer that is briefly offline keeps its slot).
constexpr int kEvictAfterMisses = 2;
/// Evicted contacts are parked and re-probed for re-adoption (a churned
/// peer that returns gets its slot back). Cap on the parking set.
constexpr size_t kMaxParked = 32;
/// Levels holding fewer refs than this trigger the refill phase.
constexpr int kMinRefsPerLevel = 2;

}  // namespace

MaintenanceAgent::MaintenanceAgent(Simulator* sim, PGridPeer* peer, Rng rng,
                                   Options options)
    : sim_(sim), peer_(peer), rng_(rng), options_(options) {
  peer_->AddProtocolHandler([this](NodeId from, const MessageBody& body) {
    return OnMessage(from, body);
  });
}

void MaintenanceAgent::Start() {
  running_ = true;
  ScheduleNext();
}

void MaintenanceAgent::ScheduleNext() {
  // Jitter the period slightly so whole-network rounds do not synchronize.
  SimTime delay = options_.period * rng_.UniformDouble(0.8, 1.2);
  sim_->Schedule(delay, [this] {
    if (!running_) return;
    RunRound();
    ScheduleNext();
  });
}

void MaintenanceAgent::RunRound() {
  ++stats_.rounds;
  const RoutingTable& routing = *peer_->routing();

  // Phase 1: probe everything we currently rely on.
  std::set<NodeId> contacts;
  for (int level = 0; level < routing.levels(); ++level) {
    for (NodeId ref : routing.RefsAt(level)) contacts.insert(ref);
  }
  for (NodeId rep : routing.replicas()) contacts.insert(rep);
  for (NodeId id : contacts) Probe(id, ProbeKind::kExistingRef);

  // Re-probe parked (previously evicted) contacts: a churned peer that is
  // back online gets re-adopted.
  for (NodeId id : parked_) {
    if (!contacts.count(id)) Probe(id, ProbeKind::kCandidate);
  }

  // Phase 2: if some level is thin, gossip for candidates through a random
  // live contact (best effort — the response handler does the adopting).
  bool needs_refill = false;
  for (int level = 0; level < routing.levels(); ++level) {
    if (int(routing.RefsAt(level).size()) < kMinRefsPerLevel) {
      needs_refill = true;
      break;
    }
  }
  if (needs_refill && !contacts.empty()) {
    std::vector<NodeId> pool(contacts.begin(), contacts.end());
    auto req = std::make_shared<RefsRequest>();
    req->nonce = next_nonce_++;
    req->origin = peer_->id();
    pending_refs_nonce_ = req->nonce;
    peer_->SendMessage(rng_.PickOne(pool), std::move(req));
  }
}

void MaintenanceAgent::Probe(NodeId target, ProbeKind kind) {
  uint64_t nonce = next_nonce_++;
  pending_probes_[nonce] = PendingProbe{target, kind};
  ++stats_.probes_sent;
  auto ping = std::make_shared<PingRequest>();
  ping->nonce = nonce;
  ping->origin = peer_->id();
  peer_->SendMessage(target, std::move(ping));

  sim_->Schedule(options_.probe_timeout, [this, nonce] {
    auto it = pending_probes_.find(nonce);
    if (it == pending_probes_.end()) return;  // answered in time
    PendingProbe probe = it->second;
    pending_probes_.erase(it);
    if (probe.kind == ProbeKind::kExistingRef) {
      // Tolerate transient churn: evict only after several consecutive
      // misses, and keep the contact parked for later re-adoption.
      int misses = ++miss_counts_[probe.target];
      if (misses >= kEvictAfterMisses) {
        peer_->routing()->RemoveRef(probe.target);
        peer_->routing()->RemoveReplica(probe.target);
        miss_counts_.erase(probe.target);
        if (parked_.size() < kMaxParked) {
          parked_.insert(probe.target);
        }
        ++stats_.refs_removed;
      }
    }
    // A dead candidate is simply not adopted.
  });
}

bool MaintenanceAgent::OnMessage(NodeId /*from*/, const MessageBody& body) {
  if (const auto* pong = dynamic_cast<const PingResponse*>(&body)) {
    OnPong(*pong);
    return true;
  }
  if (const auto* refs = dynamic_cast<const RefsResponse*>(&body)) {
    if (refs->nonce != pending_refs_nonce_) return true;  // stale gossip
    pending_refs_nonce_ = 0;
    // The responder itself is a live contact worth classifying, alongside
    // every unknown candidate it shared.
    Adopt(refs->responder, refs->responder_path);
    std::set<NodeId> known;
    const RoutingTable& routing = *peer_->routing();
    for (int level = 0; level < routing.levels(); ++level) {
      for (NodeId ref : routing.RefsAt(level)) known.insert(ref);
    }
    for (NodeId rep : routing.replicas()) known.insert(rep);
    for (NodeId candidate : refs->candidates) {
      if (candidate == peer_->id() || known.count(candidate)) continue;
      Probe(candidate, ProbeKind::kCandidate);
    }
    return true;
  }
  return false;
}

void MaintenanceAgent::OnPong(const PingResponse& pong) {
  auto it = pending_probes_.find(pong.nonce);
  if (it == pending_probes_.end()) return;  // answered after the deadline
  PendingProbe probe = it->second;
  pending_probes_.erase(it);
  miss_counts_.erase(probe.target);
  if (probe.kind == ProbeKind::kCandidate) {
    Adopt(pong.responder, pong.path);
    parked_.erase(probe.target);
  }
  // Existing refs that answered need no action.
}

void MaintenanceAgent::Adopt(NodeId id, const Key& path) {
  if (id == peer_->id()) return;
  const Key& mine = peer_->path();
  if (path == mine) {
    size_t before = peer_->routing()->replicas().size();
    peer_->routing()->AddReplica(id);
    if (peer_->routing()->replicas().size() > before) ++stats_.replicas_added;
    return;
  }
  int level = mine.CommonPrefixLength(path);
  if (level >= mine.length() || level >= path.length()) {
    // One path prefixes the other: region overlap, not a valid level ref.
    return;
  }
  if (peer_->routing()->AddRef(level, id)) ++stats_.refs_added;
}

}  // namespace gridvine
