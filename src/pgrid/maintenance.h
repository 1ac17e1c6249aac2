#ifndef GRIDVINE_PGRID_MAINTENANCE_H_
#define GRIDVINE_PGRID_MAINTENANCE_H_

#include <cstdint>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "pgrid/pgrid_peer.h"
#include "sim/simulator.h"

namespace gridvine {

/// Keeps one peer's routing table healthy under churn — the continuous
/// repair that lets P-Grid remain "efficient even in highly unreliable,
/// dynamic environments" (paper Section 2.1). Each maintenance round:
///
///   1. *Probe*: ping every routing reference and replica. References that
///      miss the probe deadline are dropped (they may be re-learned later).
///   2. *Refill*: if any level holds fewer than two references, ask a
///      random live contact for its contacts (ref gossip), then probe the
///      unknown candidates; a candidate's ping response carries its current
///      path, which places it at the correct level of this peer's table (or
///      in the replica set when paths are equal).
///
/// The agent is purely local: it sees only message responses, never global
/// state.
class MaintenanceAgent {
 public:
  struct Options {
    /// Seconds between maintenance rounds.
    SimTime period = 30.0;
    /// A probed peer failing to answer within this window misses the probe.
    SimTime probe_timeout = 3.0;
  };

  MaintenanceAgent(Simulator* sim, PGridPeer* peer, Rng rng, Options options);

  MaintenanceAgent(const MaintenanceAgent&) = delete;
  MaintenanceAgent& operator=(const MaintenanceAgent&) = delete;

  /// Starts periodic rounds (first round after one period).
  void Start();
  void Stop() { running_ = false; }

  /// Runs one round immediately (also used by tests).
  void RunRound();

  struct Stats {
    uint64_t rounds = 0;
    uint64_t probes_sent = 0;
    uint64_t refs_removed = 0;
    uint64_t refs_added = 0;
    uint64_t replicas_added = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  enum class ProbeKind { kExistingRef, kCandidate };

  void ScheduleNext();
  void Probe(NodeId target, ProbeKind kind);
  /// Returns true when `body` was a maintenance-protocol message.
  bool OnMessage(NodeId from, const MessageBody& body);
  void OnPong(const PingResponse& pong);
  /// Classifies a live peer against our path and adopts it if useful.
  void Adopt(NodeId id, const Key& path);

  Simulator* sim_;
  PGridPeer* peer_;
  Rng rng_;
  Options options_;
  bool running_ = false;
  uint64_t next_nonce_ = 1;
  struct PendingProbe {
    NodeId target;
    ProbeKind kind;
  };
  std::unordered_map<uint64_t, PendingProbe> pending_probes_;
  /// Consecutive missed probes per live contact.
  std::unordered_map<NodeId, int> miss_counts_;
  /// Evicted contacts kept around for re-adoption probing.
  std::set<NodeId> parked_;
  uint64_t pending_refs_nonce_ = 0;
  Stats stats_;
};

}  // namespace gridvine

#endif  // GRIDVINE_PGRID_MAINTENANCE_H_
