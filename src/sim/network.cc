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
  nodes_.push_back(NodeSlot{node, true});
  return id;
}

void Network::SetAlive(NodeId id, bool alive) {
  if (id < nodes_.size()) nodes_[id].alive = alive;
}

bool Network::IsAlive(NodeId id) const {
  return id < nodes_.size() && nodes_[id].alive;
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
  const bool alive = IsAlive(from) && to < nodes_.size() && nodes_[to].alive;
  Transmit(from, to, std::move(body), alive, sim_->Now(), &rng_,
           latency_.get(), loss_probability_, fault_plan_.get(),
           [this, from, to](SimTime at, std::shared_ptr<const MessageBody> copy,
                            TraceCtx flight) {
             if (flight.valid()) {
               sim_->ScheduleAt(
                   at, TracedDelivery{this, from, to, std::move(copy), flight});
             } else {
               sim_->ScheduleAt(at, Delivery{this, from, to, std::move(copy)});
             }
           });
}

void Network::Deliver(NodeId from, NodeId to,
                      std::shared_ptr<const MessageBody> body, TraceCtx ctx) {
  // Liveness re-checked at delivery time: the node may have died in flight.
  NetworkNode* node =
      to < nodes_.size() && nodes_[to].alive ? nodes_[to].node : nullptr;
  Receive(from, node, std::move(body), ctx,
          [this](TraceCtx flight, std::optional<DropCause> cause) {
            CloseFlight(flight, sim_->Now(), cause);
          });
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

void NetworkStats::Accumulate(const NetworkStats& other) {
  messages_sent += other.messages_sent;
  messages_delivered += other.messages_delivered;
  messages_dropped += other.messages_dropped;
  messages_duplicated += other.messages_duplicated;
  bytes_sent += other.bytes_sent;
  drops_endpoint += other.drops_endpoint;
  drops_loss += other.drops_loss;
  drops_burst += other.drops_burst;
  drops_partition += other.drops_partition;
  auto fold = [](std::vector<uint64_t>* into, const std::vector<uint64_t>& from) {
    if (from.size() > into->size()) into->resize(from.size(), 0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  };
  fold(&messages_by_type, other.messages_by_type);
  fold(&bytes_by_type, other.bytes_by_type);
  fold(&drops_by_type, other.drops_by_type);
}

void Network::PublishMetrics(MetricsRegistry* metrics) const {
  stats_.Publish(metrics);
}

}  // namespace gridvine
