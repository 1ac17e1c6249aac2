#include "pgrid/pgrid_peer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/mem_estimate.h"
#include "common/metrics.h"

namespace gridvine {

namespace {

/// Hard bound on a forwarding chain's length (loop safety net).
constexpr int kMaxHops = 64;

}  // namespace

PGridPeer::PGridPeer(Simulator* sim, Network* network, uint64_t seed,
                     Options options)
    : sim_(sim),
      network_(network),
      rng_(seed),
      options_(options),
      id_(kInvalidNode),
      routing_(options.max_refs_per_level) {
  id_ = network_->AddNode(this);
}

Tracer* PGridPeer::LiveTracer() const {
  Tracer* tr = network_->tracer();
  return (tr != nullptr && tr->enabled()) ? tr : nullptr;
}

TraceCtx PGridPeer::StartOpSpan(std::string_view name) {
  Tracer* tr = LiveTracer();
  if (tr == nullptr) return TraceCtx{};
  return tr->StartSpan(name, network_->ambient_ctx());
}

void PGridPeer::EndOpSpan(TraceCtx span, bool ok, int hops, int attempts) {
  Tracer* tr = LiveTracer();
  if (tr == nullptr || !span.valid()) return;
  if (!ok) tr->Annotate(span, "error", 1.0);
  if (hops >= 0) tr->Annotate(span, "hops", double(hops));
  tr->Annotate(span, "attempts", double(attempts));
  tr->EndSpan(span);
}

bool PGridPeer::IsResponsibleFor(const Key& key) const {
  const Key& p = routing_.path();
  return p.IsPrefixOf(key) || key.IsPrefixOf(p);
}

std::vector<std::string> PGridPeer::LocalLookup(
    const Key& key, std::string_view value_prefix) const {
  std::vector<std::string> out;
  for (auto it = storage_.lower_bound(key); it != storage_.end(); ++it) {
    if (!key.IsPrefixOf(it->first)) break;
    if (it->second.starts_with(value_prefix)) out.push_back(it->second);
  }
  return out;
}

void PGridPeer::ApplyLocal(UpdateOp op, const Key& key,
                           const std::string& value) {
  if (storage_keeper_ && storage_keeper_(op, key, value)) return;
  auto [first, last] = storage_.equal_range(key);
  auto it = std::find_if(first, last,
                         [&](const auto& kv) { return kv.second == value; });
  if (op == UpdateOp::kDelete) {
    if (it != last) storage_.erase(it);
  } else if (it == last) {
    storage_.emplace_hint(last, key, value);
  }
}

void PGridPeer::ReplicateToSiblings(UpdateOp op, const Key& key,
                                    const std::string& value) {
  for (NodeId replica : routing_.replicas()) {
    auto msg = std::make_shared<ReplicaUpdate>();
    msg->key = key;
    msg->value = value;
    msg->op = op;
    network_->Send(id_, replica, msg);
  }
}

std::vector<std::string> PGridPeer::Answer(const Key& key,
                                           const std::string& value,
                                           std::optional<UpdateOp> op) {
  if (!op) return LocalLookup(key, value);
  ApplyLocal(*op, key, value);
  ReplicateToSiblings(*op, key, value);
  return {};
}

// --- Client-side operations -------------------------------------------------

void PGridPeer::Retrieve(const Key& key, ReplyCallback cb,
                         std::string_view value_prefix, NodeId first_hop) {
  ++counters_.retrieves_issued;
  Issue(key, std::string(value_prefix), std::nullopt, std::move(cb),
        first_hop);
}

void PGridPeer::Update(const Key& key, const std::string& value,
                       ReplyCallback cb, NodeId first_hop) {
  ++counters_.updates_issued;
  Issue(key, value, UpdateOp::kInsert, std::move(cb), first_hop);
}

void PGridPeer::Remove(const Key& key, const std::string& value,
                       ReplyCallback cb, NodeId first_hop) {
  ++counters_.updates_issued;
  Issue(key, value, UpdateOp::kDelete, std::move(cb), first_hop);
}

void PGridPeer::Issue(const Key& key, std::string value,
                      std::optional<UpdateOp> op, ReplyCallback cb,
                      NodeId first_hop) {
  const std::string_view span_name =
      !op ? "op.retrieve"
          : (*op == UpdateOp::kInsert ? "op.update" : "op.remove");
  if (IsResponsibleFor(key)) {
    ++counters_.local_answers;
    if (Tracer* tr = LiveTracer()) {
      tr->Annotate(tr->Instant(span_name, network_->ambient_ctx()), "local",
                   1.0);
    }
    Reply reply;
    reply.values = Answer(key, value, op);
    reply.responder = id_;
    cb(std::move(reply));
    return;
  }
  uint64_t rid = NextRequestId();
  Pending p;
  p.cb = std::move(cb);
  p.key = key;
  p.value = std::move(value);
  p.op = op;
  p.started = sim_->Now();
  p.span = StartOpSpan(span_name);
  if (first_hop != kInvalidNode && p.span.valid()) {
    LiveTracer()->Annotate(p.span, "remembered", 1.0);
  }
  pending_.emplace(rid, std::move(p));
  SendAttempt(rid, first_hop);
}

void PGridPeer::SendAttempt(uint64_t request_id, NodeId first_hop) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  ++p.attempts;
  // Avoid the first hops of ALL failed attempts while alternatives exist:
  // consecutive attempts explore disjoint routes, and thereby different
  // members of the destination's replica set σ(p), without ever re-picking
  // a hop this flight already timed out on.
  auto next = first_hop != kInvalidNode
                  ? std::optional<NodeId>(first_hop)
                  : routing_.NextHop(p.key, &rng_, p.tried_hops);
  if (!next.has_value()) {
    // No usable ref right now (all evicted under churn). The attempt is
    // still spent: wait out the backoff — maintenance may refill the level —
    // and resolve as Timeout once the budget is gone.
    ++counters_.routing_dead_ends;
    if (options_.retry.Exhausted(p.attempts)) {
      FailPending(request_id, RetryPolicy::TimeoutStatus(p.attempts));
    } else {
      ArmTimeout(request_id);
    }
    return;
  }
  p.tried_hops.push_back(*next);
  auto req = std::make_shared<KeyRequest>();
  req->request_id = request_id;
  req->key = p.key;
  req->value = p.value;
  req->op = p.op;
  req->origin = id_;
  req->hops = 1;
  req->trace_ctx = p.span;  // every attempt's hops parent under the op
  network_->Send(id_, *next, req);
  ArmTimeout(request_id);
}

void PGridPeer::ArmTimeout(uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  int attempt_at_arm = it->second.attempts;
  // Capped exponential backoff with jitter from the peer's seeded stream.
  SimTime timeout = options_.retry.TimeoutFor(attempt_at_arm, &rng_);
  // Captured for the retroactive backoff span: now - timeout at the fire is
  // off by floating-point rounding (the interval could start before its
  // parent span).
  SimTime armed_at = sim_->Now();
  sim_->Schedule(timeout, [this, request_id, attempt_at_arm, armed_at] {
    auto it2 = pending_.find(request_id);
    // Already answered, or a newer attempt owns the timeout.
    if (it2 == pending_.end() || it2->second.attempts != attempt_at_arm) return;
    ++counters_.timeouts;
    if (options_.retry.Exhausted(it2->second.attempts)) {
      FailPending(request_id, RetryPolicy::TimeoutStatus(attempt_at_arm));
      return;
    }
    ++counters_.retries;
    if (Tracer* tr = LiveTracer()) {
      // Timer context, no ambient delivery: the marker must be parented
      // explicitly on the op span.
      if (it2->second.span.valid()) {
        tr->Instant("op.retry", it2->second.span);
        // Retroactive: the timeout window just waited through is backoff
        // time on the op's critical path.
        tr->Interval("op.backoff", it2->second.span, armed_at, sim_->Now());
      }
    }
    SendAttempt(request_id);
  });
}

void PGridPeer::FailPending(uint64_t request_id, Status status) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  EndOpSpan(p.span, /*ok=*/false, /*hops=*/-1, p.attempts);
  p.cb(std::move(status));
}

bool PGridPeer::FailoverPending(uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end() || options_.retry.Exhausted(it->second.attempts)) {
    return false;
  }
  ++counters_.failovers;
  if (Tracer* tr = LiveTracer()) {
    if (it->second.span.valid()) tr->Instant("op.failover", it->second.span);
  }
  SendAttempt(request_id);
  return true;
}

// --- Extension interface ------------------------------------------------------

template <typename Msg>
Status PGridPeer::Forward(NodeId from, const Key& key, const Msg& msg) {
  if (msg.hops >= kMaxHops) return Status::NetworkError("hop limit exceeded");
  auto next = routing_.NextHop(key, &rng_, {&from, 1});
  if (!next.has_value()) {
    ++counters_.routing_dead_ends;
    return Status::Unavailable("routing dead end at peer " +
                               std::to_string(id_));
  }
  ++counters_.forwards;
  auto fwd = std::make_shared<Msg>(msg);
  fwd->hops = msg.hops + 1;
  network_->Send(id_, *next, fwd);
  return Status::OK();
}

void PGridPeer::Route(const Key& key,
                      std::shared_ptr<const MessageBody> payload) {
  if (IsResponsibleFor(key)) {
    ++counters_.extension_deliveries;
    if (extension_handler_) extension_handler_(id_, std::move(payload), 0);
    return;
  }
  auto env = std::make_shared<RoutedEnvelope>();
  env->key = key;
  env->origin = id_;
  env->hops = 1;
  // Send() sees only the envelope, so the payload's causal ctx must be
  // lifted onto it for the flight span to parent correctly.
  env->trace_ctx = payload->trace_ctx;
  env->payload = std::move(payload);
  auto next = routing_.NextHop(key, &rng_);
  if (!next.has_value()) {
    ++counters_.routing_dead_ends;
    return;  // fire-and-forget: the payload protocol's timeout handles loss
  }
  network_->Send(id_, *next, env);
}

void PGridPeer::SendDirect(NodeId to,
                           std::shared_ptr<const MessageBody> payload) {
  if (to == id_) {
    ++counters_.extension_deliveries;
    if (extension_handler_) extension_handler_(id_, std::move(payload), -1);
    return;
  }
  auto env = std::make_shared<DirectEnvelope>();
  env->trace_ctx = payload->trace_ctx;
  env->payload = std::move(payload);
  network_->Send(id_, to, env);
}

void PGridPeer::RouteRange(const Key& prefix,
                           std::shared_ptr<const MessageBody> payload) {
  RangeEnvelope env;
  env.prefix = prefix;
  env.min_level = prefix.length();
  env.origin = id_;
  env.hops = 0;
  env.trace_ctx = payload->trace_ctx;
  env.payload = std::move(payload);
  if (IsResponsibleFor(prefix)) {
    // Already inside (or covering) the subtree: shower from here.
    ShowerRange(env);
    return;
  }
  auto next = routing_.NextHop(prefix, &rng_);
  if (!next.has_value()) {
    ++counters_.routing_dead_ends;
    return;
  }
  auto msg = std::make_shared<RangeEnvelope>(env);
  msg->hops = 1;
  network_->Send(id_, *next, msg);
}

void PGridPeer::ShowerRange(const RangeEnvelope& env) {
  // Deliver locally: this peer owns part (or all) of the subtree.
  ++counters_.extension_deliveries;
  if (extension_handler_) extension_handler_(env.origin, env.payload, env.hops);
  // Split: each ref at level l >= min_level covers the complementary
  // subtree at l, which lies entirely inside `prefix`; handing it
  // min_level = l + 1 partitions the remainder without overlap.
  for (int level = std::max(env.min_level, env.prefix.length());
       level < routing_.path().length(); ++level) {
    const auto& refs = routing_.RefsAt(level);
    if (refs.empty()) continue;  // region unreachable (no live ref known)
    auto msg = std::make_shared<RangeEnvelope>(env);
    msg->min_level = level + 1;
    msg->hops = env.hops + 1;
    network_->Send(id_, rng_.PickOne(refs), msg);
  }
}

void PGridPeer::HandleRangeEnvelope(NodeId from, const RangeEnvelope& env) {
  const Key& path = routing_.path();
  bool in_region = env.prefix.IsPrefixOf(path) || path.IsPrefixOf(env.prefix);
  if (in_region) {
    ShowerRange(env);
    return;
  }
  Forward(from, env.prefix, env);  // a failed step drops the envelope
}

void PGridPeer::HandleRoutedEnvelope(NodeId from, const RoutedEnvelope& env) {
  if (IsResponsibleFor(env.key)) {
    ++counters_.extension_deliveries;
    if (extension_handler_) extension_handler_(env.origin, env.payload, env.hops);
    return;
  }
  Forward(from, env.key, env);  // a failed step drops the envelope
}

// --- Message handling --------------------------------------------------------

void PGridPeer::OnMessage(NodeId from, std::shared_ptr<const MessageBody> body) {
  if (auto* renv = dynamic_cast<const RoutedEnvelope*>(body.get())) {
    HandleRoutedEnvelope(from, *renv);
  } else if (auto* range = dynamic_cast<const RangeEnvelope*>(body.get())) {
    HandleRangeEnvelope(from, *range);
  } else if (auto* denv = dynamic_cast<const DirectEnvelope*>(body.get())) {
    ++counters_.extension_deliveries;
    if (extension_handler_) extension_handler_(from, denv->payload, -1);
  } else if (auto* req = dynamic_cast<const KeyRequest*>(body.get())) {
    HandleRequest(from, *req);
  } else if (auto* resp = dynamic_cast<const KeyResponse*>(body.get())) {
    HandleResponse(*resp);
  } else if (auto* rupd = dynamic_cast<const ReplicaUpdate*>(body.get())) {
    ApplyLocal(rupd->op, rupd->key, rupd->value);
  } else if (auto* ping = dynamic_cast<const PingRequest*>(body.get())) {
    auto pong = std::make_shared<PingResponse>();
    pong->nonce = ping->nonce;
    pong->path = routing_.path();
    pong->responder = id_;
    network_->Send(id_, ping->origin, pong);
  } else if (auto* rreq = dynamic_cast<const RefsRequest*>(body.get())) {
    auto resp = std::make_shared<RefsResponse>();
    resp->nonce = rreq->nonce;
    resp->responder_path = routing_.path();
    resp->responder = id_;
    for (int level = 0; level < routing_.levels(); ++level) {
      for (NodeId ref : routing_.RefsAt(level)) {
        resp->candidates.push_back(ref);
      }
    }
    for (NodeId rep : routing_.replicas()) resp->candidates.push_back(rep);
    network_->Send(id_, rreq->origin, resp);
  } else {
    for (auto& handler : protocol_handlers_) {
      if (handler(from, *body)) return;
    }
    GV_CLOG("pgrid", Warning) << "peer " << id_ << ": unknown message "
                              << body->TypeTag().name();
  }
}

void PGridPeer::HandleRequest(NodeId from, const KeyRequest& req) {
  Status status;
  std::vector<std::string> values;
  if (IsResponsibleFor(req.key)) {
    values = Answer(req.key, req.value, req.op);
  } else {
    status = Forward(from, req.key, req);
    if (status.ok()) return;  // the responder answers the origin
  }
  auto resp = std::make_shared<KeyResponse>();
  resp->request_id = req.request_id;
  resp->ack = req.op.has_value();
  resp->status = std::move(status);
  resp->values = std::move(values);
  resp->hops = req.hops;
  resp->responder = id_;
  network_->Send(id_, req.origin, resp);
}

void PGridPeer::HandleResponse(const KeyResponse& resp) {
  auto it = pending_.find(resp.request_id);
  if (it == pending_.end()) return;  // late duplicate after timeout/answer
  if (!resp.status.ok()) {
    // Negative answer (dead end / hop limit somewhere along the route):
    // fail over to an alternate route while the budget lasts.
    if (FailoverPending(resp.request_id)) return;
    FailPending(resp.request_id,
                RetryPolicy::TimeoutStatus(it->second.attempts));
    return;
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  EndOpSpan(p.span, /*ok=*/true, resp.hops, p.attempts);
  Reply reply;
  reply.values = resp.values;
  reply.hops = resp.hops;
  reply.rtt = sim_->Now() - p.started;
  reply.responder = resp.responder;
  p.cb(std::move(reply));
}

void PGridPeer::PublishMetrics(MetricsRegistry* metrics) const {
  metrics->Counter("pgrid.retrieves_issued") += counters_.retrieves_issued;
  metrics->Counter("pgrid.updates_issued") += counters_.updates_issued;
  metrics->Counter("pgrid.forwards") += counters_.forwards;
  metrics->Counter("pgrid.local_answers") += counters_.local_answers;
  metrics->Counter("pgrid.routing_dead_ends") += counters_.routing_dead_ends;
  metrics->Counter("pgrid.timeouts") += counters_.timeouts;
  metrics->Counter("pgrid.retries") += counters_.retries;
  metrics->Counter("pgrid.failovers") += counters_.failovers;
  metrics->Counter("pgrid.extension_deliveries") +=
      counters_.extension_deliveries;
  metrics->Counter("pgrid.storage_entries") += storage_.size();
  metrics->Gauge("pgrid.pending_requests") += double(pending_.size());
}

size_t PGridPeer::MemoryFootprint() const {
  size_t bytes = sizeof(*this) + routing_.MemoryFootprint();
  bytes += RbTreeBytes(storage_.size(),
                       sizeof(std::multimap<Key, std::string>::value_type));
  for (const auto& [key, value] : storage_) {
    bytes += StringHeapBytes(key.bits()) + StringHeapBytes(value);
  }
  bytes += HashMapBytes(pending_);
  for (const auto& [rid, p] : pending_) {
    bytes += p.tried_hops.capacity() * sizeof(NodeId);
  }
  bytes += protocol_handlers_.capacity() * sizeof(ProtocolHandler);
  return bytes;
}

}  // namespace gridvine
