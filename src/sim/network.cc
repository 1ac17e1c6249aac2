#include "sim/network.h"

#include <string>
#include <utility>

#include "common/metrics.h"

namespace gridvine {

uint64_t NetworkStats::MessagesForType(std::string_view name) const {
  MsgType t = MsgType::Find(name);
  if (t.unknown() || t.id() >= messages_by_type.size()) return 0;
  return messages_by_type[t.id()];
}

uint64_t NetworkStats::BytesForType(std::string_view name) const {
  MsgType t = MsgType::Find(name);
  if (t.unknown() || t.id() >= bytes_by_type.size()) return 0;
  return bytes_by_type[t.id()];
}

uint64_t NetworkStats::DropsForType(std::string_view name) const {
  MsgType t = MsgType::Find(name);
  if (t.unknown() || t.id() >= drops_by_type.size()) return 0;
  return drops_by_type[t.id()];
}

std::map<std::string, uint64_t> NetworkStats::MessagesByTypeName() const {
  std::map<std::string, uint64_t> out;
  for (uint32_t id = 0; id < messages_by_type.size(); ++id) {
    if (messages_by_type[id] != 0) out.emplace(MsgType::NameOf(id), messages_by_type[id]);
  }
  return out;
}

Network::Network(Simulator* sim, std::unique_ptr<LatencyModel> latency,
                 Rng rng, double loss_probability)
    : sim_(sim),
      latency_(std::move(latency)),
      rng_(rng),
      loss_probability_(loss_probability) {}

NodeId Network::AddNode(NetworkNode* node) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  alive_.push_back(1);
  return id;
}

void Network::CountSend(MsgType type, size_t bytes) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  // Grow to the full registry size in one step so a burst of new types costs
  // at most one reallocation, and established types never reallocate. The
  // drop vector is sized here too (not on first drop) so drop attribution
  // never allocates on the steady-state path.
  if (type.id() >= stats_.messages_by_type.size()) {
    size_t n = MsgType::RegistryCount();
    stats_.messages_by_type.resize(n, 0);
    stats_.bytes_by_type.resize(n, 0);
    stats_.drops_by_type.resize(n, 0);
  }
  ++stats_.messages_by_type[type.id()];
  stats_.bytes_by_type[type.id()] += bytes;
}

void Network::CountDrop(MsgType type, DropCause cause) {
  ++stats_.messages_dropped;
  switch (cause) {
    case DropCause::kEndpoint: ++stats_.drops_endpoint; break;
    case DropCause::kLoss: ++stats_.drops_loss; break;
    case DropCause::kBurstLoss: ++stats_.drops_burst; break;
    case DropCause::kPartition: ++stats_.drops_partition; break;
  }
  // CountSend sizes the vector for every type this network sends, so this
  // growth step only triggers after a ResetStats() with messages still in
  // flight — never on the steady-state (zero-allocation) path.
  if (type.id() >= stats_.drops_by_type.size()) {
    stats_.drops_by_type.resize(MsgType::RegistryCount(), 0);
  }
  ++stats_.drops_by_type[type.id()];
}

void Network::CloseFlight(TraceCtx flight, SimTime at,
                          std::optional<DropCause> cause) {
  if (cause) tracer_->Annotate(flight, "drop", DropCauseName(*cause));
  tracer_->EndSpanAt(flight, at);
}

void Network::Send(NodeId from, NodeId to,
                   std::shared_ptr<const MessageBody> body) {
  Transmit(this, from, to, std::move(body), &rng_);
}

void Network::Deliver(NodeId from, NodeId to,
                      std::shared_ptr<const MessageBody> body,
                      TraceCtx flight) {
  const bool traced = flight.valid() && tracer_ != nullptr;
  if (!IsAlive(to)) {
    CountDrop(body->TypeTag(), DropCause::kEndpoint);
    if (traced) CloseFlight(flight, sim_->Now(), DropCause::kEndpoint);
    return;
  }
  ++stats_.messages_delivered;
  if (!traced) {
    // No save/restore: the event loop never nests deliveries, so
    // delivery_ctx_ is already invalid here and the stores would be dead.
    nodes_[to]->OnMessage(from, std::move(body));
    return;
  }
  CloseFlight(flight, sim_->Now(), std::nullopt);
  const TraceCtx prev = delivery_ctx_;
  delivery_ctx_ = flight;
  nodes_[to]->OnMessage(from, std::move(body));
  delivery_ctx_ = prev;
}

void NetworkStats::Publish(MetricsRegistry* metrics) const {
  metrics->Counter("net.messages_sent") += messages_sent;
  metrics->Counter("net.messages_delivered") += messages_delivered;
  metrics->Counter("net.messages_dropped") += messages_dropped;
  metrics->Counter("net.messages_duplicated") += messages_duplicated;
  metrics->Counter("net.bytes_sent") += bytes_sent;
  metrics->Counter("net.drops.endpoint") += drops_endpoint;
  metrics->Counter("net.drops.loss") += drops_loss;
  metrics->Counter("net.drops.burst") += drops_burst;
  metrics->Counter("net.drops.partition") += drops_partition;
  for (uint32_t id = 0; id < messages_by_type.size(); ++id) {
    if (messages_by_type[id] == 0 &&
        (id >= drops_by_type.size() || drops_by_type[id] == 0)) {
      continue;
    }
    const std::string base = "net.msg." + std::string(MsgType::NameOf(id));
    metrics->Counter(base + ".sent") += messages_by_type[id];
    if (id < bytes_by_type.size()) {
      metrics->Counter(base + ".bytes") += bytes_by_type[id];
    }
    if (id < drops_by_type.size() && drops_by_type[id] != 0) {
      metrics->Counter(base + ".drops") += drops_by_type[id];
    }
  }
}

void Network::PublishMetrics(MetricsRegistry* metrics) const {
  stats_.Publish(metrics);
}

}  // namespace gridvine
