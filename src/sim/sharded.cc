#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "common/metrics.h"

namespace gridvine {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}  // namespace

void ShardSimulator::ScheduleAt(SimTime t, EventFn fn) {
  ScheduleKeyedAt(t, engine_->NextSubkey(current_actor_), std::move(fn));
}

/// The Network facade one shard's peers talk to. Every operation delegates
/// to the engine; the base-class transport state (latency, rng, node slots)
/// is unused — the lane contributes the shared send and delivery policies,
/// its per-lane NetworkStats, its shard's tracer and the interface. One lane
/// is touched by exactly one worker thread during epochs: sends by actors
/// the shard owns, deliveries to nodes the shard owns.
class ShardedNetwork::ShardLane : public Network {
 public:
  NodeId AddNode(NetworkNode* node) override { return engine_->AddNode(node); }
  void SetAlive(NodeId id, bool alive) override {
    engine_->SetAlive(id, alive);
  }
  bool IsAlive(NodeId id) const override { return engine_->IsAlive(id); }
  size_t size() const override { return engine_->size(); }
  void Send(NodeId from, NodeId to,
            std::shared_ptr<const MessageBody> body) override {
    engine_->DoSend(shard_, this, from, to, std::move(body));
  }

 private:
  friend class ShardedNetwork;
  ShardLane(ShardedNetwork* engine, uint32_t shard, Simulator* sim)
      : Network(sim, nullptr, Rng(0), 0.0), engine_(engine), shard_(shard) {}

  ShardedNetwork* engine_;
  uint32_t shard_;
};

ShardedNetwork::ShardedNetwork(Options opts)
    : shards_(opts.shards == 0 ? 1 : opts.shards),
      seed_(opts.seed),
      loss_probability_(opts.loss_probability),
      latency_(std::move(opts.latency)),
      external_rng_(Mix64(opts.seed ^ 0xE7037ED1A0B428DBULL)) {
  assert(latency_ != nullptr);
  lookahead_ = latency_->MinDelay();
  assert(lookahead_ > 0 && "parallel lookahead needs MinDelay() > 0");
  if (lookahead_ <= 0) lookahead_ = 1e-9;  // still terminates, just slowly

  sims_.reserve(shards_);
  lanes_.reserve(shards_);
  tracers_.reserve(shards_);
  for (uint32_t s = 0; s < shards_; ++s) {
    auto sim = std::make_unique<ShardSimulator>();
    sim->engine_ = this;
    lanes_.emplace_back(new ShardLane(this, s, sim.get()));
    // The shard's private ring: shard index in the span-id high bits keeps
    // ids unique for any shard count, the clock is the shard's own sim, and
    // the order key is content-derived from the acting node. Inert (and
    // alloc-free) until EnableTracing.
    auto tracer = std::make_unique<Tracer>();
    tracer->SetIdBase(uint64_t(s) << Tracer::kShardIdShift);
    ShardSimulator* raw_sim = sim.get();
    tracer->SetClock([raw_sim] { return raw_sim->Now(); });
    tracer->SetOrderSource(
        [this, raw_sim] { return NextTraceOrder(raw_sim->current_actor()); });
    lanes_.back()->SetTracer(tracer.get());
    tracers_.push_back(std::move(tracer));
    sims_.push_back(std::move(sim));
  }
  trace_endbox_.resize(shards_);
  outbox_.resize(size_t(shards_) * shards_);
  shard_counters_.resize(shards_);
  finish_times_.resize(shards_);
  if (shards_ > 1) {
    workers_.reserve(shards_);
    for (uint32_t s = 0; s < shards_; ++s) {
      workers_.emplace_back([this, s] { WorkerMain(s); });
    }
  }
}

ShardedNetwork::~ShardedNetwork() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> l(mu_);
      exit_ = true;
    }
    cv_start_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

Network* ShardedNetwork::LaneFor(NodeId id) {
  return lanes_[OwnerShard(id)].get();
}

Network* ShardedNetwork::LaneForShard(uint32_t s) { return lanes_[s].get(); }

NodeId ShardedNetwork::AddNode(NetworkNode* node) {
  assert(!running_);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(node);
  alive_.push_back(1);
  seq_.push_back(0);
  trace_seq_.push_back(0);
  // Per-node stream derived from (seed, id) only — independent of shard
  // count and of every other node's draw history.
  node_rng_.emplace_back(Mix64(seed_ ^ (0x9E3779B97F4A7C15ULL * (id + 1))));
  return id;
}

void ShardedNetwork::SetAlive(NodeId id, bool alive) {
  assert(!running_);
  if (id < alive_.size()) alive_[id] = alive ? 1 : 0;
}

uint64_t ShardedNetwork::NextSubkey(uint32_t actor) {
  if (actor == ShardSimulator::kExternalActor) {
    return (uint64_t(actor) << 32) | uint32_t(++external_seq_);
  }
  return (uint64_t(actor) << 32) | uint64_t(++seq_[actor]);
}

uint64_t ShardedNetwork::NextTraceOrder(uint32_t actor) {
  if (actor == ShardSimulator::kExternalActor) {
    // Plain low counter: external spans (trace roots the quiescent driver
    // opens) sort before every node span at an equal timestamp.
    return ++external_trace_seq_;
  }
  // actor + 1 so node 0's keys stay disjoint from the external counter.
  return (uint64_t(actor + 1) << 32) | uint64_t(++trace_seq_[actor]);
}

void ShardedNetwork::EnableTracing(size_t capacity_per_shard) {
  assert(!running_);
  for (auto& t : tracers_) t->Enable(capacity_per_shard);
}

void ShardedNetwork::DisableTracing() {
  assert(!running_);
  for (auto& t : tracers_) t->Disable();
}

std::vector<Tracer*> ShardedNetwork::TracerParts() {
  std::vector<Tracer*> parts;
  parts.reserve(tracers_.size());
  for (auto& t : tracers_) parts.push_back(t.get());
  return parts;
}

void ShardedNetwork::ScheduleForNode(NodeId id, SimTime delay, EventFn fn) {
  assert(!running_ && id < nodes_.size());
  if (delay < 0) delay = 0;
  sims_[OwnerShard(id)]->ScheduleKeyedAt(now_ + delay, NextSubkey(id),
                                         std::move(fn));
}

void ShardedNetwork::ScheduleGlobal(SimTime at, std::function<void()> fn) {
  assert(!running_);
  if (at < now_) at = now_;
  global_tasks_.push_back(GlobalTask{at, ++global_task_seq_, std::move(fn)});
  std::push_heap(global_tasks_.begin(), global_tasks_.end(), std::greater<>());
}

void ShardedNetwork::RunAsNode(NodeId id, const std::function<void()>& fn) {
  assert(!running_ && id < nodes_.size());
  ShardSimulator* sim = sims_[OwnerShard(id)].get();
  const uint32_t prev = sim->current_actor();
  sim->set_current_actor(id);
  fn();
  sim->set_current_actor(prev);
}

void ShardedNetwork::DoSend(uint32_t shard, ShardLane* lane, NodeId from,
                            NodeId to,
                            std::shared_ptr<const MessageBody> body) {
  ShardSimulator* sim = sims_[shard].get();
  const uint32_t actor = sim->current_actor();
  lane->Transmit(from, to, std::move(body), IsAlive(from) && IsAlive(to),
                 sim->Now(), RngFor(actor), latency_.get(), loss_probability_,
                 fault_plan_.get(),
                 [&](SimTime at, std::shared_ptr<const MessageBody> copy,
                     TraceCtx flight) {
                   Dispatch(shard, PendingDelivery{at, NextSubkey(actor), from,
                                                   to, std::move(copy),
                                                   flight});
                 });
}

void ShardedNetwork::Dispatch(uint32_t src_shard, PendingDelivery p) {
  const uint32_t dst = OwnerShard(p.to);
  if (dst == src_shard) {
    Enqueue(sims_[dst].get(), std::move(p));
  } else {
    // Conservative guarantee: at >= send time + MinDelay >= epoch horizon,
    // so folding this in at the next barrier can never schedule into the
    // destination's past.
    outbox_[size_t(src_shard) * shards_ + dst].push_back(std::move(p));
    ++shard_counters_[src_shard].cross_sent;
  }
}

void ShardedNetwork::Enqueue(Simulator* dst, PendingDelivery p) {
  if (p.ctx.valid()) {
    dst->ScheduleKeyedAt(p.at, p.subkey,
                         TracedShardDelivery{this, p.from, p.to,
                                             std::move(p.body), p.ctx});
  } else {
    dst->ScheduleKeyedAt(p.at, p.subkey,
                         ShardDelivery{this, p.from, p.to, std::move(p.body)});
  }
}

void ShardedNetwork::Deliver(NodeId from, NodeId to,
                             std::shared_ptr<const MessageBody> body,
                             TraceCtx ctx) {
  const uint32_t dst = OwnerShard(to);
  // The handler runs as the destination: its sends, timers and draws
  // attribute to `to`'s counter and stream, exactly as if `to` had
  // scheduled them from one of its own events.
  ShardSimulator* sim = sims_[dst].get();
  const uint32_t prev = sim->current_actor();
  sim->set_current_actor(to);
  lanes_[dst]->Receive(
      from, IsAlive(to) ? nodes_[to] : nullptr, std::move(body), ctx,
      [this, dst](TraceCtx flight, std::optional<DropCause> cause) {
        EndFlight(dst, flight, cause);
      });
  sim->set_current_actor(prev);
}

void ShardedNetwork::EndFlight(uint32_t dst, TraceCtx flight,
                               std::optional<DropCause> cause) {
  const SimTime at = sims_[dst]->Now();
  const uint64_t owner = flight.span_id >> Tracer::kShardIdShift;
  if (owner == dst) {
    // Own ring — apply in place (same worker thread).
    lanes_[dst]->CloseFlight(flight, at, cause);
  } else {
    // Another shard's ring: hand off at the barrier, like cross-shard sends.
    trace_endbox_[dst].push_back(TraceEndOp{flight, at, cause});
  }
}

void ShardedNetwork::RunShardEpoch(uint32_t s, SimTime horizon) {
  ShardSimulator* sim = sims_[s].get();
  uint64_t subkey;
  EventFn fn;
  while (sim->PopBefore(horizon, &subkey, &fn)) {
    sim->set_current_actor(static_cast<uint32_t>(subkey >> 32));
    fn();
  }
  sim->set_current_actor(ShardSimulator::kExternalActor);
}

void ShardedNetwork::RunEpochParallel(SimTime horizon) {
  running_ = true;
  if (shards_ == 1) {
    // Same epoch structure, no threads: shards==1 is the reference run the
    // multi-shard configurations must match bit for bit.
    RunShardEpoch(0, horizon);
  } else {
    std::unique_lock<std::mutex> l(mu_);
    epoch_horizon_ = horizon;
    done_count_ = 0;
    ++generation_;
    cv_start_.notify_all();
    cv_done_.wait(l, [&] { return done_count_ == shards_; });
    auto first = finish_times_[0], last = finish_times_[0];
    for (uint32_t s = 1; s < shards_; ++s) {
      first = std::min(first, finish_times_[s]);
      last = std::max(last, finish_times_[s]);
    }
    barrier_wait_seconds_ +=
        std::chrono::duration<double>(last - first).count();
  }
  running_ = false;
}

void ShardedNetwork::WorkerMain(uint32_t s) {
  uint64_t seen = 0;
  for (;;) {
    SimTime horizon;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_start_.wait(l, [&] { return exit_ || generation_ != seen; });
      if (exit_) return;
      seen = generation_;
      horizon = epoch_horizon_;
    }
    RunShardEpoch(s, horizon);
    finish_times_[s] = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> l(mu_);
      ++done_count_;
    }
    cv_done_.notify_one();
  }
}

void ShardedNetwork::DrainMailboxes() {
  for (size_t box_idx = 0; box_idx < outbox_.size(); ++box_idx) {
    auto& box = outbox_[box_idx];
    if (box.empty()) continue;
    Simulator* dst = sims_[box_idx % shards_].get();
    for (PendingDelivery& p : box) Enqueue(dst, std::move(p));
    box.clear();  // keeps capacity: steady-state drains allocate nothing
  }
  DrainTraceEnds();
}

void ShardedNetwork::DrainTraceEnds() {
  for (auto& box : trace_endbox_) {
    for (const TraceEndOp& op : box) {
      const uint64_t owner = op.ctx.span_id >> Tracer::kShardIdShift;
      if (owner >= lanes_.size()) continue;
      lanes_[owner]->CloseFlight(op.ctx, op.at, op.cause);
    }
    box.clear();
  }
}

void ShardedNetwork::AdvanceAll(SimTime t) {
  for (auto& s : sims_) s->AdvanceTo(t);
}

size_t ShardedNetwork::RunLoop(SimTime until, const bool* done,
                               size_t max_events) {
  const size_t start = events_executed();
  for (;;) {
    DrainMailboxes();
    if (done != nullptr && *done) break;
    if (events_executed() - start >= max_events) break;

    SimTime tg = global_tasks_.empty() ? kInf : global_tasks_.front().at;
    SimTime te = kInf;
    for (auto& s : sims_) te = std::min(te, s->NextEventTime());
    const SimTime head = std::min(tg, te);
    if (head == kInf || head > until) break;

    if (tg <= te) {
      // Global task due first (ties go to the task): run it quiesced, with
      // every clock advanced to its time.
      AdvanceAll(tg);
      now_ = tg;
      std::pop_heap(global_tasks_.begin(), global_tasks_.end(),
                    std::greater<>());
      GlobalTask task = std::move(global_tasks_.back());
      global_tasks_.pop_back();
      task.fn();
      continue;
    }

    // Epoch window [head, head + lookahead), shrunk to keep global tasks at
    // quiescent points and to honor the run bound. The boundary depends
    // only on globally-earliest times, so the epoch sequence — and with it
    // the set of events each epoch executes — is shard-count invariant.
    SimTime horizon = head + lookahead_;
    if (tg < horizon) horizon = tg;
    const SimTime cap = std::nextafter(until, kInf);  // include time == until
    if (horizon > cap) horizon = cap;
    RunEpochParallel(horizon);
    ++epochs_;
  }

  SimTime end_now = now_;
  for (auto& s : sims_) end_now = std::max(end_now, s->Now());
  if (until != kInf && until > end_now) end_now = until;
  now_ = end_now;
  AdvanceAll(end_now);
  return events_executed() - start;
}

size_t ShardedNetwork::RunUntilIdle(size_t max_events) {
  return RunLoop(kInf, nullptr, max_events);
}

size_t ShardedNetwork::RunUntil(SimTime t) {
  return RunLoop(t, nullptr, SIZE_MAX);
}

size_t ShardedNetwork::RunUntilFlag(const bool* done) {
  return RunLoop(kInf, done, SIZE_MAX);
}

size_t ShardedNetwork::events_executed() const {
  size_t n = 0;
  for (auto& s : sims_) n += s->events_executed();
  return n;
}

size_t ShardedNetwork::pending() const {
  size_t n = global_tasks_.size();
  for (auto& s : sims_) n += s->pending();
  for (auto& box : outbox_) n += box.size();
  return n;
}

NetworkStats ShardedNetwork::AggregateStats() const {
  NetworkStats out;
  for (auto& lane : lanes_) out.Accumulate(lane->stats());
  return out;
}

uint64_t ShardedNetwork::cross_shard_messages() const {
  uint64_t n = 0;
  for (const auto& c : shard_counters_) n += c.cross_sent;
  return n;
}

void ShardedNetwork::PublishMetrics(MetricsRegistry* metrics) const {
  AggregateStats().Publish(metrics);
  metrics->Counter("sim.shard.shards") += shards_;
  metrics->Counter("sim.shard.epochs") += epochs_;
  metrics->Counter("sim.shard.events") += events_executed();
  metrics->Counter("sim.shard.cross_shard_messages") += cross_shard_messages();
  metrics->Counter("sim.shard.barrier_wait_us") +=
      uint64_t(barrier_wait_seconds_ * 1e6);
}

size_t ShardedNetwork::MemoryFootprint() const {
  size_t bytes = nodes_.capacity() * sizeof(NetworkNode*) +
                 alive_.capacity() * sizeof(uint8_t) +
                 seq_.capacity() * sizeof(uint32_t) +
                 trace_seq_.capacity() * sizeof(uint32_t) +
                 node_rng_.capacity() * sizeof(SmallRng) +
                 global_tasks_.capacity() * sizeof(GlobalTask) +
                 shard_counters_.capacity() * sizeof(ShardCounters);
  for (const auto& box : trace_endbox_) {
    bytes += box.capacity() * sizeof(TraceEndOp);
  }
  for (const auto& s : sims_) {
    bytes += sizeof(ShardSimulator) + s->MemoryFootprint();
  }
  bytes += lanes_.size() * sizeof(ShardLane);
  for (const auto& box : outbox_) {
    bytes += box.capacity() * sizeof(PendingDelivery);
  }
  return bytes;
}

}  // namespace gridvine
