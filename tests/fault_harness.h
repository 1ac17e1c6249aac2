#ifndef GRIDVINE_TESTS_FAULT_HARNESS_H_
#define GRIDVINE_TESTS_FAULT_HARNESS_H_

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "pgrid/maintenance.h"
#include "pgrid/online_exchange.h"
#include "pgrid/pgrid_builder.h"
#include "sim/churn.h"
#include "sim/fault_plan.h"

namespace gridvine {

/// One chaos scenario: a seeded overlay, a seeded fault plan (loss bursts,
/// partitions, latency spikes, duplication) layered over base loss and
/// churn, and a stream of Retrieve/Update operations issued from a pinned
/// peer. Everything — overlay wiring, fault windows, op mix, retry jitter —
/// derives from `seed`, so a failing run replays bit-identically from the
/// seed the harness prints.
struct FaultScenario {
  std::string name = "scenario";
  uint64_t seed = 1;

  // Topology.
  int peers = 48;
  int key_depth = 9;
  int refs_per_level = 3;

  // Workload: `operations` mixed Retrieve/Update ops, one every
  // `op_interval` simulated seconds after `warmup`.
  int operations = 120;
  SimTime op_interval = 2.0;
  SimTime warmup = 5.0;
  double update_fraction = 0.25;

  // Reliability layer. With `retries_on == false` the policy is clamped to a
  // single attempt (fire once, then timeout) — the paper-faithful baseline.
  RetryPolicy retry{/*base_timeout=*/1.5, /*max_attempts=*/4,
                    /*backoff_multiplier=*/2.0, /*max_timeout=*/12.0,
                    /*jitter=*/0.1};
  bool retries_on = true;

  // Faults. Window placement/extent is drawn from a generator forked off
  // `seed`; counts say how many windows of each kind to scatter over the run.
  double loss = 0.0;               // base independent loss
  int loss_bursts = 0;             // elevated-loss windows
  int partitions = 0;              // bidirectional partition windows
  int latency_spikes = 0;          // extra-latency windows
  double duplicate_probability = 0.0;

  // Churn (issuer pinned). offline_fraction f sets mean downtime so that
  // f = down / (up + down).
  bool churn = false;
  double offline_fraction = 0.2;
  double mean_session = 120.0;
  bool maintenance = true;
  /// Record spans for the whole run (every op traced); the trace invariants
  /// below check causal bookkeeping survives drops/duplicates/retries.
  bool trace = false;
  /// Wire ChurnModel's transition listener so a rejoining peer re-enters the
  /// overlay with one online-exchange encounter (the rejoin contract
  /// documented in sim/churn.h).
  bool rejoin_exchange = false;
};

/// Everything a scenario run observes; CheckDrainInvariants() interrogates it.
struct FaultRunResult {
  NetworkStats stats;
  uint64_t churn_transitions = 0;
  uint64_t rejoin_encounters = 0;

  // Operation accounting.
  size_t ops_issued = 0;
  size_t ops_ok = 0;         // resolved OK
  size_t ops_timeout = 0;    // resolved Status::Timeout
  size_t ops_other = 0;      // resolved with any other terminal status
  size_t unresolved = 0;     // callback never fired
  size_t resolved_twice = 0; // callback fired more than once
  size_t retrieves_issued = 0;
  size_t retrieves_hit = 0;  // retrieves that returned the planted value

  // Leak accounting after the simulator drained.
  size_t leaked_pending = 0;     // sum of PGridPeer::PendingRequests()
  size_t events_left = 0;        // Simulator::pending() after Run()

  uint64_t retries = 0;    // summed over peers
  uint64_t failovers = 0;  // summed over peers

  // Trace accounting (scenario.trace only).
  std::vector<Tracer::Span> spans;
  uint64_t spans_evicted = 0;

  double Recall() const {
    return retrieves_issued == 0
               ? 0.0
               : double(retrieves_hit) / double(retrieves_issued);
  }
};

/// Derives the fault windows from the scenario seed. Windows land inside the
/// op phase so they actually intersect traffic.
inline std::unique_ptr<FaultPlan> MakeFaultPlan(
    const FaultScenario& s, const std::vector<PGridPeer*>& peers) {
  auto plan = std::make_unique<FaultPlan>();
  Rng rng(s.seed * 0x9e3779b97f4a7c15ULL + 17);
  const SimTime horizon = s.warmup + s.operations * s.op_interval;
  for (int i = 0; i < s.loss_bursts; ++i) {
    FaultPlan::LossBurst b;
    b.start = rng.UniformDouble(s.warmup, horizon);
    b.end = b.start + rng.UniformDouble(5.0, 20.0);
    b.probability = rng.UniformDouble(0.4, 0.9);
    plan->AddLossBurst(b);
  }
  for (int i = 0; i < s.partitions; ++i) {
    FaultPlan::Partition part;
    part.start = rng.UniformDouble(s.warmup, horizon);
    part.end = part.start + rng.UniformDouble(8.0, 25.0);
    for (auto* p : peers) {
      (rng.Bernoulli(0.25) ? part.group_a : part.group_b).push_back(p->id());
    }
    if (part.group_a.empty() || part.group_b.empty()) {
      // Degenerate draw: force a minimal two-sided cut.
      part.group_a.assign(1, peers.front()->id());
      part.group_b.assign(1, peers.back()->id());
    }
    plan->AddPartition(part);
  }
  for (int i = 0; i < s.latency_spikes; ++i) {
    FaultPlan::LatencySpike sp;
    sp.start = rng.UniformDouble(s.warmup, horizon);
    sp.end = sp.start + rng.UniformDouble(5.0, 15.0);
    sp.extra = rng.UniformDouble(0.2, 0.8);
    sp.extra_mean_tail = 0.1;
    plan->AddLatencySpike(sp);
  }
  plan->set_duplicate_probability(s.duplicate_probability);
  return plan;
}

/// Builds the world, runs the scenario to quiescence, and reports what
/// happened. Same scenario (same seed) → bit-identical FaultRunResult::stats.
inline FaultRunResult RunFaultScenario(const FaultScenario& s) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.03), Rng(s.seed),
              s.loss);
  Tracer tracer;
  if (s.trace) {
    tracer.SetClock([&sim] { return sim.Now(); });
    tracer.Enable(/*capacity=*/1 << 20);
    net.SetTracer(&tracer);
  }

  PGridPeer::Options popts;
  popts.key_depth = s.key_depth;
  popts.retry = s.retry;
  if (!s.retries_on) popts.retry.max_attempts = 1;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  for (int i = 0; i < s.peers; ++i) {
    owned.push_back(std::make_unique<PGridPeer>(
        &sim, &net, Mt64Head<1>(s.seed * 131 + i)[0], popts));
    peers.push_back(owned.back().get());
  }
  Rng build_rng(s.seed + 1);
  PGridBuilder::BuildBalanced(peers, &build_rng, s.refs_per_level);

  // Plant one value per region key; every replica of the region holds it.
  std::vector<Key> keys;
  keys.reserve(size_t(s.peers));
  for (int k = 0; k < s.peers; ++k) {
    Key key = Key::FromUint(uint64_t(k) * 13, s.key_depth);
    keys.push_back(key);
    for (auto* p : peers) {
      if (p->path().IsPrefixOf(key)) p->InsertLocal(key, "v");
    }
  }

  std::vector<std::unique_ptr<MaintenanceAgent>> maint;
  if (s.maintenance) {
    MaintenanceAgent::Options mopts;
    mopts.period = 10.0;
    mopts.probe_timeout = 1.0;
    for (auto* p : peers) {
      maint.push_back(std::make_unique<MaintenanceAgent>(
          &sim, p, Rng(s.seed * 7 + p->id()), mopts));
      maint.back()->Start();
    }
  }

  // Exchange agents exist only to serve rejoin re-entry; they are never
  // Start()ed (no periodic encounters), so they add no traffic unless a
  // churned peer comes back.
  FaultRunResult result;
  std::vector<std::unique_ptr<OnlineExchangeAgent>> exchange;
  std::vector<OnlineExchangeAgent*> exchange_by_id(size_t(s.peers), nullptr);
  if (s.rejoin_exchange) {
    OnlineExchangeAgent::Options xopts;
    for (auto* p : peers) {
      exchange.push_back(std::make_unique<OnlineExchangeAgent>(
          &sim, p, Rng(s.seed * 59 + p->id()), xopts));
      exchange_by_id[p->id()] = exchange.back().get();
    }
  }

  net.SetFaultPlan(MakeFaultPlan(s, peers));

  ChurnModel::Options copts;
  copts.mean_session_seconds = s.mean_session;
  copts.mean_downtime_seconds =
      s.offline_fraction <= 0
          ? 0.001
          : s.mean_session * s.offline_fraction / (1 - s.offline_fraction);
  copts.pinned = {peers[0]->id()};
  ChurnModel churn(&sim, &net, Rng(s.seed + 5), copts);
  churn.SetTransitionListener([&](NodeId id, bool alive) {
    if (alive && id < exchange_by_id.size() && exchange_by_id[id] != nullptr) {
      exchange_by_id[id]->InitiateEncounter();
      ++result.rejoin_encounters;
    }
  });
  if (s.churn) churn.Start();

  // Operation stream. Each op records how often its callback fired and with
  // what terminal status; the drain check wants exactly one resolution per
  // op, each either OK or Timeout.
  struct OpRecord {
    int resolutions = 0;
    Status status;
    bool value_hit = false;
    bool is_retrieve = false;
  };
  std::vector<OpRecord> ops(size_t(s.operations));
  PGridPeer* issuer = peers[0];
  Rng op_rng(s.seed + 9);
  for (int i = 0; i < s.operations; ++i) {
    const Key key = keys[size_t(op_rng.UniformInt(0, s.peers - 1))];
    const bool is_update = op_rng.Bernoulli(s.update_fraction);
    OpRecord* rec = &ops[size_t(i)];
    rec->is_retrieve = !is_update;
    const SimTime when = s.warmup + i * s.op_interval;
    if (is_update) {
      sim.ScheduleAt(when, [issuer, key, rec, i]() {
        issuer->Update(key, "u" + std::to_string(i),
                       [rec](Result<PGridPeer::Reply> r) {
                         ++rec->resolutions;
                         rec->status = r.status();
                       });
      });
    } else {
      sim.ScheduleAt(when, [issuer, key, rec]() {
        issuer->Retrieve(key, [rec](Result<PGridPeer::Reply> r) {
          ++rec->resolutions;
          rec->status = r.status();
          if (r.ok() && !r->values.empty()) rec->value_hit = true;
        });
      });
    }
  }

  // End of the op phase: freeze churn and maintenance, then drain. Already
  // scheduled transitions/rounds become no-ops; outstanding requests resolve
  // by answer or timeout; the heap empties.
  const SimTime stop_at = s.warmup + s.operations * s.op_interval + 1.0;
  sim.ScheduleAt(stop_at, [&churn, &maint]() {
    churn.Stop();
    for (auto& m : maint) m->Stop();
  });
  sim.Run();

  result.stats = net.stats();
  if (s.trace) {
    result.spans = tracer.Snapshot();
    result.spans_evicted = tracer.evicted();
  }
  result.churn_transitions = churn.transitions();
  result.events_left = sim.pending();
  for (auto* p : peers) {
    result.leaked_pending += p->PendingRequests();
    result.retries += p->counters().retries;
    result.failovers += p->counters().failovers;
  }
  for (const auto& rec : ops) {
    ++result.ops_issued;
    if (rec.resolutions == 0) {
      ++result.unresolved;
      continue;
    }
    if (rec.resolutions > 1) ++result.resolved_twice;
    if (rec.status.ok()) {
      ++result.ops_ok;
    } else if (rec.status.IsTimeout()) {
      ++result.ops_timeout;
    } else {
      ++result.ops_other;
    }
    if (rec.is_retrieve) {
      ++result.retrieves_issued;
      if (rec.value_hit) ++result.retrieves_hit;
    }
  }
  return result;
}

/// The drain invariants. Every violation message leads with the scenario
/// seed so the run can be replayed exactly:
///   GV_SOAK_SEED=<seed> ./build/tests/fault_soak_test
inline ::testing::AssertionResult CheckDrainInvariants(
    const FaultScenario& s, const FaultRunResult& r) {
  std::ostringstream tag;
  tag << "[scenario=" << s.name << " seed=" << s.seed
      << "] replay with: GV_SOAK_SEED=" << s.seed
      << " ./build/tests/fault_soak_test — ";
  auto fail = [&tag](const std::string& what) {
    return ::testing::AssertionFailure() << tag.str() << what;
  };
  const NetworkStats& n = r.stats;

  // 1. Conservation: every message put on the wire (plus every fault-plan
  //    duplicate) was either delivered or dropped.
  if (n.messages_sent + n.messages_duplicated !=
      n.messages_delivered + n.messages_dropped) {
    return fail("conservation broken: sent=" +
                std::to_string(n.messages_sent) + " + duplicated=" +
                std::to_string(n.messages_duplicated) + " != delivered=" +
                std::to_string(n.messages_delivered) + " + dropped=" +
                std::to_string(n.messages_dropped));
  }

  // 2. Drop-cause attribution sums to the total drop count.
  const uint64_t causes =
      n.drops_endpoint + n.drops_loss + n.drops_burst + n.drops_partition;
  if (causes != n.messages_dropped) {
    return fail("drop causes sum to " + std::to_string(causes) +
                ", expected messages_dropped=" +
                std::to_string(n.messages_dropped));
  }

  // 3. Per-type attribution sums to the totals.
  const uint64_t by_type_sent = std::accumulate(
      n.messages_by_type.begin(), n.messages_by_type.end(), uint64_t{0});
  if (by_type_sent != n.messages_sent) {
    return fail("per-type send counts sum to " + std::to_string(by_type_sent) +
                ", expected messages_sent=" + std::to_string(n.messages_sent));
  }
  const uint64_t by_type_dropped = std::accumulate(
      n.drops_by_type.begin(), n.drops_by_type.end(), uint64_t{0});
  if (by_type_dropped != n.messages_dropped) {
    return fail("per-type drop counts sum to " +
                std::to_string(by_type_dropped) +
                ", expected messages_dropped=" +
                std::to_string(n.messages_dropped));
  }

  // 4. No leaked in-flight requests and a fully drained event heap.
  if (r.leaked_pending != 0) {
    return fail(std::to_string(r.leaked_pending) +
                " pending request(s) leaked after drain");
  }
  if (r.events_left != 0) {
    return fail(std::to_string(r.events_left) +
                " event(s) still queued after Run()");
  }

  // 5. Every operation resolved exactly once, to OK or Timeout.
  if (r.unresolved != 0) {
    return fail(std::to_string(r.unresolved) + " op(s) never resolved");
  }
  if (r.resolved_twice != 0) {
    return fail(std::to_string(r.resolved_twice) +
                " op(s) resolved more than once");
  }
  if (r.ops_other != 0) {
    return fail(std::to_string(r.ops_other) +
                " op(s) resolved with a status outside {OK, Timeout}");
  }
  if (r.ops_ok + r.ops_timeout != r.ops_issued) {
    return fail("op accounting inconsistent: ok=" + std::to_string(r.ops_ok) +
                " + timeout=" + std::to_string(r.ops_timeout) +
                " != issued=" + std::to_string(r.ops_issued));
  }
  return ::testing::AssertionSuccess();
}

/// Causal-bookkeeping invariants for a traced run (scenario.trace == true):
/// dropped, duplicated and retried messages must still produce a correctly
/// parented, fully closed span forest with exact retry/failover accounting.
inline ::testing::AssertionResult CheckTraceInvariants(
    const FaultScenario& s, const FaultRunResult& r) {
  std::ostringstream tag;
  tag << "[scenario=" << s.name << " seed=" << s.seed
      << "] replay with: GV_SOAK_SEED=" << s.seed
      << " ./build/tests/fault_soak_test — ";
  auto fail = [&tag](const std::string& what) {
    return ::testing::AssertionFailure() << tag.str() << what;
  };

  // The ring was sized for the run; eviction would invalidate the checks.
  if (r.spans_evicted != 0) {
    return fail(std::to_string(r.spans_evicted) +
                " span(s) evicted — ring too small for the scenario");
  }
  TraceAnalyzer ta(r.spans);

  // 1. Structure: unique ids, parents present, acyclic, per-trace coherent —
  //    no orphans even when a parent's message was dropped or duplicated.
  std::string structural = ta.CheckConsistency();
  if (!structural.empty()) return fail("trace inconsistent: " + structural);

  // 2. Every span closed after the drain (flight spans of dropped messages
  //    are ended by the drop path; op spans by resolution or timeout).
  if (ta.OpenCount() != 0) {
    return fail(std::to_string(ta.OpenCount()) +
                " span(s) still open after drain");
  }

  // 3. Exactly one op root per issued operation — duplicates and retries do
  //    not double-count an operation.
  const size_t op_roots =
      ta.CountNamed("op.retrieve") + ta.CountNamed("op.update");
  if (op_roots != r.ops_issued) {
    return fail("op span count " + std::to_string(op_roots) +
                " != ops issued " + std::to_string(r.ops_issued));
  }

  // 4. Retry/failover markers reconcile with the peers' counters.
  if (ta.CountNamed("op.retry") != r.retries) {
    return fail("op.retry markers " +
                std::to_string(ta.CountNamed("op.retry")) +
                " != retries counted " + std::to_string(r.retries));
  }
  if (ta.CountNamed("op.failover") != r.failovers) {
    return fail("op.failover markers " +
                std::to_string(ta.CountNamed("op.failover")) +
                " != failovers counted " + std::to_string(r.failovers));
  }
  return ::testing::AssertionSuccess();
}

}  // namespace gridvine

#endif  // GRIDVINE_TESTS_FAULT_HARNESS_H_
