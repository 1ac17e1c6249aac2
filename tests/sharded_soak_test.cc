// Chaos soak for the keyed engine: loss bursts, partitions, latency spikes,
// duplication and churn (SetAlive flips at global tasks) over an overlay.
// Asserts the message-conservation invariant, that the reliability layer
// drains, and that the whole faulty run replays bit-identically.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pgrid/pgrid_builder.h"
#include "pgrid/pgrid_peer.h"
#include "sim/fault_plan.h"
#include "sim/latency.h"
#include "sim/sharded.h"

namespace gridvine {
namespace {

struct SoakOutcome {
  NetworkStats stats;
  std::vector<int> op_status;  // per op: hops on success, -2 on failure
  SimTime final_time = 0;
  size_t events = 0;

  friend bool operator==(const SoakOutcome&, const SoakOutcome&) = default;
};

Key BitsKey(Rng* rng, int len) {
  std::string bits;
  for (int b = 0; b < len; ++b) bits += rng->Bernoulli(0.5) ? '1' : '0';
  return Key::FromBits(bits).value();
}

SoakOutcome RunSoak(uint64_t seed) {
  ShardedNetwork::Options so;
  so.seed = seed;
  so.loss_probability = 0.02;
  so.latency = std::make_unique<WanLatency>(0.005, -3.2, 1.0, 0.0, 0.0);
  ShardedNetwork engine(std::move(so));

  const size_t kPeers = 32;
  Rng rng(seed);
  PGridPeer::Options popts;
  popts.key_depth = 10;
  popts.retry = RetryPolicy{/*base_timeout=*/1.0, /*max_attempts=*/4,
                            /*backoff_multiplier=*/2.0, /*max_timeout=*/8.0,
                            /*jitter=*/0.1};
  std::vector<std::unique_ptr<PGridPeer>> peers;
  for (size_t i = 0; i < kPeers; ++i) {
    peers.push_back(std::make_unique<PGridPeer>(
        engine.sim(), &engine,
        Mt64Head<1>(rng.engine()())[0], popts));
  }
  std::vector<PGridPeer*> raw;
  for (auto& p : peers) raw.push_back(p.get());
  Rng wire(seed + 1);
  PGridBuilder::BuildBalanced(raw, &wire, 3);

  // Fault plan: a loss burst, a partition between two id stripes, a latency
  // spike, plus independent duplication throughout.
  auto plan = std::make_unique<FaultPlan>();
  plan->AddLossBurst({/*start=*/2.0, /*end=*/4.0, /*probability=*/0.5});
  FaultPlan::Partition part;
  part.start = 5.0;
  part.end = 7.0;
  for (NodeId id = 0; id < NodeId(kPeers); ++id) {
    (id % 4 == 0 ? part.group_a : part.group_b).push_back(id);
  }
  plan->AddPartition(part);
  plan->AddLatencySpike({/*start=*/8.0, /*end=*/9.5, /*extra=*/0.4,
                         /*extra_mean_tail=*/0.2});
  plan->set_duplicate_probability(0.05);
  engine.SetFaultPlan(std::move(plan));

  // Churn at global tasks: a few non-issuer peers flap.
  for (int f = 0; f < 4; ++f) {
    NodeId victim = NodeId(7 + 5 * f);
    engine.ScheduleGlobal(3.0 + 1.5 * f,
                          [&engine, victim] { engine.SetAlive(victim, false); });
    engine.ScheduleGlobal(3.8 + 1.5 * f,
                          [&engine, victim] { engine.SetAlive(victim, true); });
  }

  // Workload: mixed updates/retrieves from live issuers spread over the
  // fault windows.
  const int kOps = 80;
  Rng key_rng(seed + 13);
  std::vector<Key> keys;
  for (int i = 0; i < kOps; ++i) keys.push_back(BitsKey(&key_rng, 7));
  std::vector<int> op_status(size_t(kOps), -1);
  for (int i = 0; i < kOps; ++i) {
    NodeId issuer = NodeId(size_t(i * 3 + 1) % kPeers);
    if (issuer % 5 == 2) issuer = (issuer + 1) % NodeId(kPeers);
    SimTime at = 0.5 + 0.12 * i;
    if (i % 3 == 0) {
      engine.ScheduleForNode(issuer, at, [&, i, issuer] {
        peers[issuer]->Update(keys[size_t(i)], "v" + std::to_string(i),
                              [&op_status, i](Result<PGridPeer::UpdateOutcome> r) {
                                op_status[size_t(i)] = r.ok() ? r->hops : -2;
                              });
      });
    } else {
      engine.ScheduleForNode(issuer, at, [&, i, issuer] {
        peers[issuer]->Retrieve(
            keys[size_t(i)], [&op_status, i](Result<PGridPeer::LookupResult> r) {
              op_status[size_t(i)] = r.ok() ? r->hops : -2;
            });
      });
    }
  }

  engine.RunUntilIdle();

  SoakOutcome out;
  out.stats = engine.stats();
  out.op_status = std::move(op_status);
  out.final_time = engine.Now();
  out.events = engine.events_executed();

  // Every request resolved (answered, failed, or timed out) and every
  // callback fired.
  for (auto& p : peers) EXPECT_EQ(p->PendingRequests(), 0u);
  for (int i = 0; i < kOps; ++i) EXPECT_NE(out.op_status[size_t(i)], -1) << i;
  return out;
}

TEST(ShardedSoakTest, ConservationHoldsUnderFaults) {
  SoakOutcome out = RunSoak(31337);
  const NetworkStats& s = out.stats;
  // Once idle, every copy that entered the network left it exactly once:
  // originals + fault-plan duplicates == deliveries + drops (all causes).
  EXPECT_EQ(s.messages_sent + s.messages_duplicated,
            s.messages_delivered + s.messages_dropped);
  EXPECT_EQ(s.messages_dropped,
            s.drops_endpoint + s.drops_loss + s.drops_burst + s.drops_partition);
  // The plan actually bit: every fault class shows up.
  EXPECT_GT(s.messages_duplicated, 0u);
  EXPECT_GT(s.drops_loss, 0u);
  EXPECT_GT(s.drops_burst + s.drops_partition + s.drops_endpoint, 0u);
}

TEST(ShardedSoakTest, FaultyRunReplaysBitIdentically) {
  EXPECT_EQ(RunSoak(2024), RunSoak(2024));
}

}  // namespace
}  // namespace gridvine
