#include "pgrid/maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "sim/churn.h"
#include "pgrid/pgrid_builder.h"

namespace gridvine {
namespace {

struct Overlay {
  explicit Overlay(size_t n, int key_depth = 10, uint64_t seed = 1)
      : net(&sim, std::make_unique<ConstantLatency>(0.02), Rng(seed)) {
    PGridPeer::Options opts;
    opts.key_depth = key_depth;
    opts.retry.base_timeout = 1.0;
    opts.retry.max_attempts = 3;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(seed * 17 + i)[0], opts));
      peers.push_back(owned.back().get());
    }
  }

  void AttachAgents(MaintenanceAgent::Options opts, uint64_t seed = 9) {
    for (auto* p : peers) {
      agents.push_back(
          std::make_unique<MaintenanceAgent>(&sim, p, Rng(seed + p->id()), opts));
    }
  }

  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  std::vector<std::unique_ptr<MaintenanceAgent>> agents;
};

TEST(MaintenanceTest, DeadRefsAreDropped) {
  Overlay o(16);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng, /*refs_per_level=*/2);
  o.AttachAgents({});

  // Kill one peer that peer 0 references. Eviction needs two consecutive
  // missed probes (transient-churn tolerance), hence two rounds.
  NodeId victim = o.peers[0]->routing()->RefsAt(0)[0];
  o.net.SetAlive(victim, false);

  o.agents[0]->RunRound();
  o.sim.RunUntil(o.sim.Now() + 10);
  o.agents[0]->RunRound();
  o.sim.RunUntil(o.sim.Now() + 10);

  for (int level = 0; level < o.peers[0]->routing()->levels(); ++level) {
    for (NodeId ref : o.peers[0]->routing()->RefsAt(level)) {
      EXPECT_NE(ref, victim);
    }
  }
  EXPECT_GE(o.agents[0]->stats().refs_removed, 1u);
}

TEST(MaintenanceTest, LiveRefsAreKept) {
  Overlay o(16);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng, 2);
  o.AttachAgents({});
  // Remember the refs present before the round.
  std::set<std::pair<int, NodeId>> before;
  for (int level = 0; level < o.peers[0]->routing()->levels(); ++level) {
    for (NodeId ref : o.peers[0]->routing()->RefsAt(level)) {
      before.insert({level, ref});
    }
  }
  o.agents[0]->RunRound();
  o.sim.RunUntil(o.sim.Now() + 10);
  // Nothing evicted (every ref answered its probe); the gossip phase may
  // have ADDED refs on top, which is fine.
  EXPECT_EQ(o.agents[0]->stats().refs_removed, 0u);
  for (const auto& [level, ref] : before) {
    const auto& refs = o.peers[0]->routing()->RefsAt(level);
    EXPECT_NE(std::find(refs.begin(), refs.end(), ref), refs.end())
        << "lost live ref " << ref << " at level " << level;
  }
}

TEST(MaintenanceTest, ThinLevelsRefillThroughGossip) {
  Overlay o(16);
  Rng rng(4);
  // Build with only 1 ref per level; agents want 2.
  PGridBuilder::BuildBalanced(o.peers, &rng, /*refs_per_level=*/1);
  o.AttachAgents({});

  // Several rounds of gossip + adoption.
  for (int round = 0; round < 5; ++round) {
    for (auto& agent : o.agents) agent->RunRound();
    o.sim.RunUntil(o.sim.Now() + 10);
  }

  size_t total_added = 0;
  for (auto& agent : o.agents) total_added += agent->stats().refs_added;
  EXPECT_GT(total_added, 0u);
  // Adopted refs must satisfy the level invariant.
  for (auto* p : o.peers) {
    for (int level = 0; level < p->routing()->levels(); ++level) {
      for (NodeId ref : p->routing()->RefsAt(level)) {
        const Key& other = o.peers[ref]->path();
        EXPECT_EQ(other.CommonPrefixLength(p->path()), level);
        EXPECT_NE(other.bit(level), p->path().bit(level));
      }
    }
  }
}

TEST(MaintenanceTest, RepairsRoutingAfterMassFailure) {
  Overlay o(32);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng, /*refs_per_level=*/3);
  MaintenanceAgent::Options opts;
  opts.period = 20.0;
  o.AttachAgents(opts);
  for (auto& agent : o.agents) agent->Start();

  // Insert data everywhere.
  for (uint64_t k = 0; k < 32; ++k) {
    Key key = Key::FromUint(k * 31, 10);
    for (auto* p : o.peers) {
      if (p->path().IsPrefixOf(key)) {
        p->InsertLocal(key, std::string("v").append(std::to_string(k)));
        break;
      }
    }
  }

  // Kill a third of the network (whole regions may vanish; queries for the
  // surviving regions must keep working after repair).
  Rng kill_rng(6);
  std::vector<NodeId> dead;
  for (NodeId id = 1; id < o.peers.size() && dead.size() < 10; ++id) {
    if (kill_rng.Bernoulli(0.5)) {
      o.net.SetAlive(id, false);
      dead.push_back(id);
    }
  }
  // Let several maintenance periods elapse, then stop the agents (otherwise
  // their perpetual rescheduling keeps the event queue non-empty forever).
  o.sim.RunUntil(o.sim.Now() + 120);
  for (auto& agent : o.agents) agent->Stop();

  // No surviving peer may still reference a dead one.
  for (auto* p : o.peers) {
    if (!o.net.IsAlive(p->id())) continue;
    for (int level = 0; level < p->routing()->levels(); ++level) {
      for (NodeId ref : p->routing()->RefsAt(level)) {
        EXPECT_TRUE(o.net.IsAlive(ref))
            << "peer " << p->id() << " still references dead " << ref;
      }
    }
  }

  // Lookups from a surviving peer toward surviving regions succeed.
  size_t tried = 0, answered = 0;
  for (uint64_t k = 0; k < 32; ++k) {
    Key key = Key::FromUint(k * 31, 10);
    bool region_alive = false;
    for (auto* p : o.peers) {
      if (p->path().IsPrefixOf(key) && o.net.IsAlive(p->id())) {
        region_alive = true;
      }
    }
    if (!region_alive) continue;
    ++tried;
    bool got = false;
    bool done = false;
    o.peers[0]->Retrieve(key, [&](Result<PGridPeer::Reply> r) {
      if (r.ok() && !r->values.empty()) got = true;
      done = true;
    });
    while (!done && o.sim.pending() > 0) o.sim.Run(1);
    if (got) ++answered;
  }
  ASSERT_GT(tried, 5u);
  EXPECT_GE(double(answered), 0.9 * double(tried));
}

TEST(MaintenanceTest, PeriodicRoundsRunWithJitter) {
  Overlay o(8);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng, 2);
  MaintenanceAgent::Options opts;
  opts.period = 10.0;
  o.AttachAgents(opts);
  o.agents[0]->Start();
  o.sim.RunUntil(100);
  // ~10 rounds expected in 100 s (jitter 0.8-1.2x).
  EXPECT_GE(o.agents[0]->stats().rounds, 7u);
  EXPECT_LE(o.agents[0]->stats().rounds, 13u);
  o.agents[0]->Stop();
  uint64_t rounds = o.agents[0]->stats().rounds;
  o.sim.RunUntil(200);
  EXPECT_EQ(o.agents[0]->stats().rounds, rounds);
}

TEST(MaintenanceTest, WithChurnAndMaintenanceLookupsKeepWorking) {
  Overlay o(32, 10, 7);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng, /*refs_per_level=*/3);
  MaintenanceAgent::Options mopts;
  mopts.period = 15.0;
  o.AttachAgents(mopts);
  for (auto& agent : o.agents) agent->Start();

  ChurnModel::Options copts;
  copts.mean_session_seconds = 120;
  copts.mean_downtime_seconds = 20;
  copts.pinned = {o.peers[0]->id()};
  ChurnModel churn(&o.sim, &o.net, Rng(11), copts);
  churn.Start();

  // Replicated data: every key stored at all peers of its region.
  for (uint64_t k = 0; k < 32; ++k) {
    Key key = Key::FromUint(k * 97, 10);
    for (auto* p : o.peers) {
      if (p->path().IsPrefixOf(key)) p->InsertLocal(key, "v");
    }
  }

  size_t answered = 0;
  const int kQueries = 60;
  for (int q = 0; q < kQueries; ++q) {
    o.sim.RunUntil(o.sim.Now() + 10);  // let churn/maintenance interleave
    Key key = Key::FromUint(uint64_t(q % 32) * 97, 10);
    bool got = false;
    bool done = false;
    o.peers[0]->Retrieve(key, [&](Result<PGridPeer::Reply> r) {
      got = r.ok() && !r->values.empty();
      done = true;
    });
    while (!done && o.sim.pending() > 0) o.sim.Run(1);
    if (got) ++answered;
  }
  churn.Stop();
  // With ~14% average downtime, replicas and live repair keep the
  // overwhelming majority of lookups working.
  EXPECT_GE(answered, size_t(kQueries * 0.8)) << answered << "/" << kQueries;
}

}  // namespace
}  // namespace gridvine
