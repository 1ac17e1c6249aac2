#ifndef GRIDVINE_GRIDVINE_GRIDVINE_NETWORK_H_
#define GRIDVINE_GRIDVINE_GRIDVINE_NETWORK_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "gridvine/gridvine_peer.h"
#include "pgrid/pgrid_builder.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace gridvine {

/// Owns a complete simulated GridVine deployment: the event loop, the
/// transport, and N GridVine peers wired into a P-Grid overlay. This is the
/// top-level entry point used by examples, tests and the experiment benches.
///
/// Asynchronous operations of GridVinePeer are also exposed as synchronous
/// helpers that pump the simulator until the operation completes — the
/// natural shape for experiment scripts.
class GridVineNetwork {
 public:
  enum class LatencyKind { kConstant, kUniform, kWan };

  struct Options {
    size_t num_peers = 16;
    int key_depth = 16;
    uint64_t seed = 1;
    LatencyKind latency = LatencyKind::kConstant;
    /// kConstant: the latency; kUniform: [0, 2x]; kWan: the base delay.
    SimTime latency_param = 0.02;
    /// kWan only: parameters of the log-normal variable delay component,
    /// plus the straggler mixture (overloaded-host extra delay).
    double wan_mu = -3.2;
    double wan_sigma = 1.1;
    double wan_straggler_prob = 0.0;
    SimTime wan_straggler_mean = 4.0;
    double loss_probability = 0.0;
    int refs_per_level = 2;
    /// > 1 runs the deployment on the sharded conservative-parallel engine
    /// (ShardedNetwork): peers are partitioned across this many event-queue
    /// shards with worker threads. Outcomes are bit-identical across shard
    /// counts, and tracing works the same as in classic mode — tracer()
    /// returns a TraceView merging the per-shard span rings into one
    /// causally ordered sequence. sim()/network() return null — use
    /// engine(). 1 (default) keeps the classic single-queue path.
    uint32_t shards = 1;
    /// Run the sharded engine even at shards == 1 (its threadless reference
    /// mode). Classic and sharded runs are NOT comparable bit-for-bit (the
    /// engines consume random streams differently); forcing the engine lets
    /// a shards=1 run anchor a shard-count invariance comparison.
    bool force_sharded = false;
    PGridPeer::Options overlay;
    GridVinePeer::Options peer;
  };

  explicit GridVineNetwork(Options options);

  GridVineNetwork(const GridVineNetwork&) = delete;
  GridVineNetwork& operator=(const GridVineNetwork&) = delete;

  /// Single-queue event loop and transport; null when shards > 1.
  Simulator* sim() { return engine_ ? nullptr : &sim_; }
  Network* network() { return network_.get(); }
  /// The sharded engine; null when shards == 1.
  ShardedNetwork* engine() { return engine_.get(); }
  Rng* rng() { return &rng_; }

  /// Simulated time, whichever engine is driving.
  SimTime Now() const { return engine_ ? engine_->Now() : sim_.Now(); }

  /// The deployment's tracer, pre-wired into the transport and clocked on
  /// simulated time. Disabled (zero-cost) until tracer()->Enable(). In
  /// classic mode this views the single ring; in sharded mode it merges the
  /// per-shard rings (Snapshot() sorts by the causal (start, order) key, so
  /// the merged sequence is identical for any shard count of the same seed).
  /// Enable/Disable/Clear are quiescent-only on the sharded engine, same as
  /// every other control call.
  TraceView* tracer() { return &trace_view_; }

  /// Scratch registry for CollectMetrics; also usable directly.
  MetricsRegistry* metrics() { return &metrics_; }

  // --- Time-series health layer -------------------------------------------

  /// Starts the windowed health layer: every `window_s` simulated seconds a
  /// tick collects a full metrics snapshot, evaluates the watchdog's
  /// invariant rules over the window, and appends the snapshot to the
  /// time series. Ticks ride the event loop (a global task on the sharded
  /// engine), so windows land at deterministic simulated times; they stop
  /// re-arming once the deployment goes idle — call HealthTick() for a
  /// manual sample, or EnableHealth again to restart the cadence.
  void EnableHealth(double window_s, HealthWatchdog::Options opts = {});

  /// Samples one window right now: CollectMetrics + watchdog evaluation +
  /// time-series append, stamped Now(). The shell's `health` refresh.
  void HealthTick();

  MetricsTimeSeries* timeseries() { return &timeseries_; }
  HealthWatchdog* watchdog() { return &watchdog_; }
  double health_window() const { return health_window_; }

  /// Clears the registry and republishes a fresh snapshot from the network
  /// and every peer (both layers); returns it.
  MetricsRegistry& CollectMetrics();

  /// Registers an extra publisher CollectMetrics() invokes after the engine
  /// and peers — how higher layers (e.g. the self-organizer's gv.selforg.*
  /// counters) join the unified snapshot without a dependency from this
  /// layer.
  void AddMetricsSource(std::function<void(MetricsRegistry*)> source) {
    metrics_sources_.push_back(std::move(source));
  }

  size_t size() const { return peers_.size(); }
  GridVinePeer* peer(size_t i) { return peers_[i].get(); }
  std::vector<PGridPeer*> overlay_peers();

  /// Rewires the overlay into a trie adapted to `sample` keys (storage
  /// balance under skewed key distributions, experiment E7). Existing
  /// overlay storage is NOT redistributed — call before inserting data.
  void RebuildOverlayAdaptive(const std::vector<Key>& sample);

  // --- Synchronous wrappers (pump the simulator until completion) ----------

  Status InsertTriple(size_t peer_idx, const Triple& triple);
  /// Bulk load through one peer: all overlay updates in flight at once,
  /// pumped to completion — much faster than a loop of InsertTriple calls,
  /// which each wait for three acks before issuing the next.
  Status InsertTriples(size_t peer_idx, const std::vector<Triple>& triples);
  Status RemoveTriple(size_t peer_idx, const Triple& triple);
  Status InsertSchema(size_t peer_idx, const Schema& schema);
  /// Replaces a stored schema definition (schema evolution); see
  /// GridVinePeer::UpsertSchema.
  Status UpsertSchema(size_t peer_idx, const Schema& schema);
  Status InsertMapping(size_t peer_idx, const SchemaMapping& mapping);
  Status UpsertMapping(size_t peer_idx, const SchemaMapping& mapping);
  Status PublishDegree(size_t peer_idx, const std::string& domain,
                       const std::string& schema, int in_degree,
                       int out_degree);

  Result<Schema> FetchSchema(size_t peer_idx, const std::string& name);
  Result<std::vector<SchemaMapping>> FetchMappingsFor(
      size_t peer_idx, const std::string& schema);
  Result<std::vector<GridVinePeer::DegreeRecord>> FetchDomainDegrees(
      size_t peer_idx, const std::string& domain);

  GridVinePeer::QueryResult SearchFor(
      size_t peer_idx, const TriplePatternQuery& query,
      const GridVinePeer::QueryOptions& options = {});
  GridVinePeer::ConjunctiveResult SearchForConjunctive(
      size_t peer_idx, const ConjunctiveQuery& query,
      const GridVinePeer::QueryOptions& options = {});

  /// SearchFor routed through the peer's QueryFrontend (admission control);
  /// may return Status::Overload when the peer is saturated.
  GridVinePeer::QueryResult ServeFor(
      size_t peer_idx, const TriplePatternQuery& query,
      const GridVinePeer::QueryOptions& options = {});
  GridVinePeer::ConjunctiveResult ServeForConjunctive(
      size_t peer_idx, const ConjunctiveQuery& query,
      const GridVinePeer::QueryOptions& options = {});

  /// Runs the event loop until idle (drains in-flight maintenance traffic).
  void Settle() {
    if (engine_) {
      engine_->RunUntilIdle();
    } else {
      sim_.Run();
    }
  }

  /// Advances simulated time to `t`, engine-agnostic. The building block of
  /// continuous background activities (SelfOrganizer::RunContinuous): faults
  /// and churn fire inside the slice, synchronous work runs between slices.
  void RunUntil(SimTime t) {
    if (engine_) {
      engine_->RunUntil(t);
    } else {
      sim_.RunUntil(t);
    }
  }

  /// Marks a peer dead/alive in the transport, engine-agnostic. On the
  /// sharded engine this must be called between runs (quiescent), same as
  /// ShardedNetwork::SetAlive.
  void SetAlive(size_t peer_idx, bool alive) {
    if (engine_) {
      engine_->SetAlive(static_cast<NodeId>(peer_idx), alive);
    } else {
      network_->SetAlive(static_cast<NodeId>(peer_idx), alive);
    }
  }

  /// Aggregate per-peer + engine memory accounting, in bytes. `breakdown`
  /// (optional) receives named per-component totals for display.
  size_t MemoryFootprint(
      std::vector<std::pair<std::string, size_t>>* breakdown = nullptr) const;

 private:
  std::unique_ptr<LatencyModel> MakeLatency();

  /// Runs the event loop until `*done` or idle.
  void PumpUntil(const bool* done);

  /// The body of every synchronous wrapper: runs `start(peer, done)` on
  /// peer `peer_idx` through Issue and pumps until `done` receives the
  /// operation's value. An operation the deployment goes idle without
  /// completing yields T() — or, for a Result, Internal("not completed").
  template <typename T, typename Start>
  T RunToCompletion(size_t peer_idx, Start start) {
    bool finished = false;
    T result = [] {
      if constexpr (std::is_default_constructible_v<T>) {
        return T();
      } else {
        return T(Status::Internal("not completed"));
      }
    }();
    Issue(peer_idx, [&] {
      start(peers_[peer_idx].get(), [&](T r) {
        result = std::move(r);
        finished = true;
      });
    });
    PumpUntil(&finished);
    return result;
  }

  /// Arms the next health tick `health_window_` seconds out (engine-agnostic).
  void ScheduleHealthTick();

  /// Runs `f` attributed to peer `peer_idx` — on the sharded engine, issuing
  /// work from outside an event must go through RunAsNode so the sends it
  /// triggers draw from that peer's streams. Direct call in single mode.
  template <typename F>
  void Issue(size_t peer_idx, F&& f) {
    if (engine_) {
      engine_->RunAsNode(static_cast<NodeId>(peer_idx), std::forward<F>(f));
    } else {
      f();
    }
  }

  Options options_;
  Simulator sim_;
  Rng rng_;
  Tracer tracer_;  // classic mode's single ring (inert when sharded)
  /// What tracer() hands out: {&tracer_} in classic mode, the engine's
  /// per-shard rings in sharded mode.
  TraceView trace_view_;
  MetricsRegistry metrics_;
  MetricsTimeSeries timeseries_;
  HealthWatchdog watchdog_;
  double health_window_ = 0;  // 0 until EnableHealth
  bool health_enabled_ = false;
  std::unique_ptr<Network> network_;
  std::unique_ptr<ShardedNetwork> engine_;  // shards > 1 only
  std::vector<std::unique_ptr<GridVinePeer>> peers_;
  std::vector<std::function<void(MetricsRegistry*)>> metrics_sources_;
};

}  // namespace gridvine

#endif  // GRIDVINE_GRIDVINE_GRIDVINE_NETWORK_H_
