#include "gridvine/gridvine_network.h"

#include <cassert>

#include "gridvine/query_frontend.h"

namespace gridvine {

GridVineNetwork::GridVineNetwork(Options options)
    : options_(options), rng_(options.seed) {
  options_.peer.key_depth = options_.key_depth;
  options_.overlay.key_depth = options_.key_depth;
  assert(options_.shards == 1 && "one queue only; set force_sharded");
  if (options_.force_sharded) {
    ShardedNetwork::Options sopts;
    sopts.seed = options_.seed;
    sopts.loss_probability = options_.loss_probability;
    sopts.latency = MakeLatency();
    auto engine = std::make_unique<ShardedNetwork>(std::move(sopts));
    engine_ = engine.get();
    network_ = std::move(engine);
  } else {
    tracer_.SetClock([this] { return sim_.Now(); });
    network_ = std::make_unique<Network>(&sim_, MakeLatency(), rng_.Fork(),
                                         options_.loss_probability);
    network_->SetTracer(&tracer_);
  }
  trace_view_ = TraceView(network_->tracer());
  peers_.reserve(options_.num_peers);
  for (size_t i = 0; i < options_.num_peers; ++i) {
    // A peer's streams are seeded as if from a forked Rng(s): the overlay
    // from the first draw of Rng(first draw of Rng(s)), the jitter from the
    // second draw of Rng(s). Mt64Head yields those draws without building
    // either mt19937_64.
    const auto fork = Mt64Head<2>(rng_.engine()());
    const uint64_t overlay_seed = Mt64Head<1>(fork[0])[0];
    peers_.push_back(std::make_unique<GridVinePeer>(
        network_->sim(), network_.get(), overlay_seed, fork[1], options_.peer,
        options_.overlay));
  }
  Rng wire_rng = rng_.Fork();
  PGridBuilder::BuildBalanced(overlay_peers(), &wire_rng,
                              options_.refs_per_level);
}

std::unique_ptr<LatencyModel> GridVineNetwork::MakeLatency() {
  switch (options_.latency) {
    case LatencyKind::kConstant:
      return std::make_unique<ConstantLatency>(options_.latency_param);
    case LatencyKind::kUniform:
      return std::make_unique<UniformLatency>(0, 2 * options_.latency_param);
    case LatencyKind::kWan:
      return std::make_unique<WanLatency>(
          options_.latency_param, options_.wan_mu, options_.wan_sigma,
          options_.wan_straggler_prob, options_.wan_straggler_mean);
  }
  return std::make_unique<ConstantLatency>(options_.latency_param);
}

std::vector<PGridPeer*> GridVineNetwork::overlay_peers() {
  std::vector<PGridPeer*> out;
  out.reserve(peers_.size());
  for (auto& p : peers_) out.push_back(p->overlay());
  return out;
}

MetricsRegistry& GridVineNetwork::CollectMetrics() {
  metrics_.Clear();
  network_->PublishMetrics(&metrics_);
  for (auto& p : peers_) {
    p->PublishMetrics(&metrics_);
    p->overlay()->PublishMetrics(&metrics_);
  }
  for (auto& source : metrics_sources_) source(&metrics_);
  // Spans lost to ring wrap-around. Nonzero means exported traces may
  // contain orphans (TraceAnalyzer downgrades those to warnings) — the
  // signal to enlarge the ring.
  metrics_.Counter("trace.evicted") = trace_view_.evicted();
  if (health_enabled_) watchdog_.PublishMetrics(&metrics_);
  return metrics_;
}

void GridVineNetwork::EnableHealth(double window_s,
                                   HealthWatchdog::Options opts) {
  watchdog_ = HealthWatchdog(opts);
  watchdog_.SetTracer(network_->tracer());
  health_window_ = window_s;
  health_enabled_ = true;
  ScheduleHealthTick();
}

void GridVineNetwork::HealthTick() {
  CollectMetrics();
  watchdog_.Evaluate(Now(), &metrics_);
  timeseries_.Record(Now(), metrics_);
}

void GridVineNetwork::ScheduleHealthTick() {
  // The tick re-arms only while events remain, so drain loops (Settle,
  // RunUntilIdle) still terminate; an idle deployment samples nothing.
  // On the keyed engine the tick is a global task, so it runs as no node and
  // before any node event due at the same instant.
  const SimTime at = Now() + health_window_;
  if (engine_) {
    engine_->ScheduleGlobal(at, [this] {
      HealthTick();
      if (engine_->pending() > 0) ScheduleHealthTick();
    });
  } else {
    sim_.ScheduleAt(at, [this] {
      HealthTick();
      if (sim_.pending() > 0) ScheduleHealthTick();
    });
  }
}

size_t GridVineNetwork::MemoryFootprint(
    std::vector<std::pair<std::string, size_t>>* breakdown) const {
  size_t overlay = 0, stores = 0, caches = 0, frontends = 0, peers = 0;
  for (const auto& p : peers_) {
    const GridVinePeer& peer = *p;
    overlay += peer.overlay()->MemoryFootprint();
    stores += peer.local_db().MemoryFootprint();
    if (peer.cache()) caches += peer.cache()->MemoryFootprint();
    if (peer.frontend()) frontends += peer.frontend()->MemoryFootprint();
    peers += peer.MemoryFootprint();
  }
  const size_t engine = engine_ ? engine_->MemoryFootprint()
                                : sim_.MemoryFootprint();
  const size_t total =
      peers + engine +
      peers_.capacity() * sizeof(std::unique_ptr<GridVinePeer>);
  if (breakdown) {
    breakdown->emplace_back("peers.total", peers);
    breakdown->emplace_back("peers.overlay", overlay);
    breakdown->emplace_back("peers.store", stores);
    breakdown->emplace_back("peers.cache", caches);
    breakdown->emplace_back("peers.frontend", frontends);
    breakdown->emplace_back(engine_ ? "engine.sharded" : "engine.sim", engine);
  }
  return total;
}

void GridVineNetwork::RebuildOverlayAdaptive(const std::vector<Key>& sample) {
  Rng wire_rng = rng_.Fork();
  PGridBuilder::BuildAdaptive(overlay_peers(), sample, &wire_rng,
                              options_.refs_per_level);
}

void GridVineNetwork::PumpUntil(const bool* done) {
  // One draining call instead of a Run(1)-per-event loop: both engines
  // check the flag between events, so nothing runs after the completion.
  if (engine_) {
    engine_->RunUntilFlag(done);
  } else {
    sim_.RunUntilFlag(done);
  }
}

Status GridVineNetwork::InsertTriple(size_t peer_idx, const Triple& triple) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->InsertTriple(triple, done);
  });
}

Status GridVineNetwork::InsertTriples(size_t peer_idx,
                                      const std::vector<Triple>& triples) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->InsertTriples(triples, done);
  });
}

Status GridVineNetwork::RemoveTriple(size_t peer_idx, const Triple& triple) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->RemoveTriple(triple, done);
  });
}

Status GridVineNetwork::InsertSchema(size_t peer_idx, const Schema& schema) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->InsertSchema(schema, done);
  });
}

Status GridVineNetwork::UpsertSchema(size_t peer_idx, const Schema& schema) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->UpsertSchema(schema, done);
  });
}

Status GridVineNetwork::InsertMapping(size_t peer_idx,
                                      const SchemaMapping& mapping) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->InsertMapping(mapping, done);
  });
}

Status GridVineNetwork::UpsertMapping(size_t peer_idx,
                                      const SchemaMapping& mapping) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->UpsertMapping(mapping, done);
  });
}

Status GridVineNetwork::PublishDegree(size_t peer_idx,
                                      const std::string& domain,
                                      const std::string& schema, int in_degree,
                                      int out_degree) {
  return RunToCompletion<Status>(peer_idx, [&](GridVinePeer* p, auto done) {
    p->PublishDegree(domain, schema, in_degree, out_degree, done);
  });
}

Result<Schema> GridVineNetwork::FetchSchema(size_t peer_idx,
                                            const std::string& name) {
  return RunToCompletion<Result<Schema>>(
      peer_idx,
      [&](GridVinePeer* p, auto done) { p->FetchSchema(name, done); });
}

Result<std::vector<SchemaMapping>> GridVineNetwork::FetchMappingsFor(
    size_t peer_idx, const std::string& schema) {
  return RunToCompletion<Result<std::vector<SchemaMapping>>>(
      peer_idx,
      [&](GridVinePeer* p, auto done) { p->FetchMappingsFor(schema, done); });
}

Result<std::vector<GridVinePeer::DegreeRecord>>
GridVineNetwork::FetchDomainDegrees(size_t peer_idx,
                                    const std::string& domain) {
  return RunToCompletion<Result<std::vector<GridVinePeer::DegreeRecord>>>(
      peer_idx,
      [&](GridVinePeer* p, auto done) { p->FetchDomainDegrees(domain, done); });
}

GridVinePeer::QueryResult GridVineNetwork::SearchFor(
    size_t peer_idx, const TriplePatternQuery& query,
    const GridVinePeer::QueryOptions& options) {
  return RunToCompletion<GridVinePeer::QueryResult>(
      peer_idx,
      [&](GridVinePeer* p, auto done) { p->SearchFor(query, options, done); });
}

GridVinePeer::ConjunctiveResult GridVineNetwork::SearchForConjunctive(
    size_t peer_idx, const ConjunctiveQuery& query,
    const GridVinePeer::QueryOptions& options) {
  return RunToCompletion<GridVinePeer::ConjunctiveResult>(
      peer_idx, [&](GridVinePeer* p, auto done) {
        p->SearchForConjunctive(query, options, done);
      });
}

GridVinePeer::QueryResult GridVineNetwork::ServeFor(
    size_t peer_idx, const TriplePatternQuery& query,
    const GridVinePeer::QueryOptions& options) {
  return RunToCompletion<GridVinePeer::QueryResult>(
      peer_idx, [&](GridVinePeer* p, auto done) {
        p->frontend()->Submit(query, options, done);
      });
}

GridVinePeer::ConjunctiveResult GridVineNetwork::ServeForConjunctive(
    size_t peer_idx, const ConjunctiveQuery& query,
    const GridVinePeer::QueryOptions& options) {
  return RunToCompletion<GridVinePeer::ConjunctiveResult>(
      peer_idx, [&](GridVinePeer* p, auto done) {
        p->frontend()->SubmitConjunctive(query, options, done);
      });
}

}  // namespace gridvine
