#include "pgrid/online_exchange.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/hash.h"
#include "pgrid/maintenance.h"

namespace gridvine {
namespace {

/// A fully message-driven bootstrap: peers start with empty paths, their own
/// data, and a handful of seed contacts. No out-of-band construction at all.
struct BootstrapNet {
  explicit BootstrapNet(size_t n, uint64_t seed = 1,
                        size_t items_per_peer = 12)
      : net(&sim, std::make_unique<ConstantLatency>(0.02), Rng(seed)) {
    PGridPeer::Options popts;
    popts.key_depth = 8;
    OnlineExchangeAgent::Options xopts;
    xopts.period = 5.0;
    xopts.max_local_keys = 24;
    Rng data_rng(seed * 13);
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(seed * 31 + i)[0], popts));
      peers.push_back(owned.back().get());
      agents.push_back(std::make_unique<OnlineExchangeAgent>(
          &sim, peers.back(), Rng(seed * 77 + i), xopts));
      for (size_t j = 0; j < items_per_peer; ++j) {
        Key k = UniformHash(
            "item-" + std::to_string(i) + "-" + std::to_string(j), 8);
        peers.back()->InsertLocal(
            k, std::string("v").append(std::to_string(i * 100 + j)));
      }
    }
    // Seed contacts: a ring plus one long link — connected, sparse.
    for (size_t i = 0; i < n; ++i) {
      agents[i]->AddSeedContact(peers[(i + 1) % n]->id());
      agents[i]->AddSeedContact(peers[(i + n / 2) % n]->id());
    }
  }

  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  std::vector<std::unique_ptr<OnlineExchangeAgent>> agents;
};

TEST(OnlineExchangeTest, TwoPeersSplitOverMessages) {
  BootstrapNet b(2, 3, /*items_per_peer=*/20);  // joint 40 > 24: must split
  b.agents[0]->InitiateEncounter();
  b.sim.Run();
  // One of the two initiated an exchange that ended in a split.
  EXPECT_EQ(b.peers[0]->path().length(), 1);
  EXPECT_EQ(b.peers[1]->path().length(), 1);
  EXPECT_NE(b.peers[0]->path(), b.peers[1]->path());
  // Cross refs installed at level 0.
  EXPECT_EQ(b.peers[0]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(b.peers[1]->routing()->RefsAt(0).size(), 1u);
  // Data drained to the responsible side.
  for (auto* p : b.peers) {
    for (const auto& [k, v] : p->storage()) {
      EXPECT_TRUE(p->IsResponsibleFor(k)) << p->path() << " holds " << k;
    }
  }
}

TEST(OnlineExchangeTest, TwoLightPeersReplicate) {
  BootstrapNet b(2, 5, /*items_per_peer=*/4);  // joint 8 <= 24: replicate
  b.agents[0]->InitiateEncounter();
  b.sim.Run();
  EXPECT_TRUE(b.peers[0]->path().empty());
  EXPECT_TRUE(b.peers[1]->path().empty());
  EXPECT_EQ(b.peers[0]->routing()->replicas().size(), 1u);
  EXPECT_EQ(b.peers[1]->routing()->replicas().size(), 1u);
  // Content synchronized (union on both sides).
  EXPECT_EQ(b.peers[0]->StorageSize(), 8u);
  EXPECT_EQ(b.peers[1]->StorageSize(), 8u);
}

// Neither peer holds an entry that only its partner is responsible for: the
// post-condition every encounter leaves behind.
void ExpectDrained(const PGridPeer* a, const PGridPeer* b) {
  for (auto [holder, other] : {std::pair{a, b}, std::pair{b, a}}) {
    for (const auto& [k, v] : holder->storage()) {
      EXPECT_FALSE(!holder->IsResponsibleFor(k) && other->IsResponsibleFor(k))
          << holder->path() << " holds " << k << " for " << other->path();
    }
  }
}

TEST(OnlineExchangeTest, ShorterPathSpecializesAgainstLongerPath) {
  BootstrapNet b(2, 3, /*items_per_peer=*/20);
  b.peers[1]->SetPath(Key::FromBits("01").value());
  b.agents[0]->InitiateEncounter();
  b.sim.Run();
  // Peer 0 (empty path) specializes away from peer 1's subtree: bit 0 of
  // peer 1 is 0, so peer 0 takes "1".
  EXPECT_EQ(b.peers[0]->path().bits(), "1");
  EXPECT_EQ(b.peers[1]->path().bits(), "01");
  ASSERT_EQ(b.peers[0]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(b.peers[0]->routing()->RefsAt(0)[0], b.peers[1]->id());
  ASSERT_EQ(b.peers[1]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(b.peers[1]->routing()->RefsAt(0)[0], b.peers[0]->id());
  ExpectDrained(b.peers[0], b.peers[1]);
}

TEST(OnlineExchangeTest, DivergentPathsExchangeRefsAndGossip) {
  BootstrapNet b(3, 5, /*items_per_peer=*/0);
  b.peers[0]->SetPath(Key::FromBits("00").value());
  b.peers[1]->SetPath(Key::FromBits("01").value());
  b.peers[2]->SetPath(Key::FromBits("10").value());
  // Give peer 0 a level-0 ref that peer 1 lacks.
  b.peers[0]->routing()->AddRef(0, b.peers[2]->id());
  b.agents[1]->EncounterWith(b.peers[0]->id());
  b.sim.Run();
  // Divergence at level 1: mutual refs there.
  ASSERT_EQ(b.peers[0]->routing()->RefsAt(1).size(), 1u);
  EXPECT_EQ(b.peers[0]->routing()->RefsAt(1)[0], b.peers[1]->id());
  ASSERT_EQ(b.peers[1]->routing()->RefsAt(1).size(), 1u);
  EXPECT_EQ(b.peers[1]->routing()->RefsAt(1)[0], b.peers[0]->id());
  // Gossip: peer 1 learned peer 0's level-0 ref (valid for both, since they
  // share the prefix above the divergence level).
  ASSERT_EQ(b.peers[1]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(b.peers[1]->routing()->RefsAt(0)[0], b.peers[2]->id());
}

TEST(OnlineExchangeTest, DataDrainsToResponsiblePeer) {
  // The entry crosses in the Commit when its holder initiates, and in the
  // Reply when its holder responds.
  for (size_t initiator : {0u, 1u}) {
    BootstrapNet b(2, 3, /*items_per_peer=*/0);
    b.peers[0]->SetPath(Key::FromBits("0").value());
    b.peers[1]->SetPath(Key::FromBits("1").value());
    b.peers[0]->InsertLocal(Key::FromBits("11000000").value(), "belongs-to-1");
    b.agents[initiator]->InitiateEncounter();
    b.sim.Run();
    EXPECT_EQ(b.peers[0]->StorageSize(), 0u) << "initiator " << initiator;
    EXPECT_EQ(b.peers[1]->StorageSize(), 1u) << "initiator " << initiator;
  }
}

TEST(OnlineExchangeTest, NetworkSpecializesOverSimulatedTime) {
  BootstrapNet b(24, 7);
  for (auto& agent : b.agents) agent->Start();
  b.sim.RunUntil(600);
  for (auto& agent : b.agents) agent->Stop();

  size_t specialized = 0;
  for (auto* p : b.peers) {
    if (!p->path().empty()) ++specialized;
  }
  EXPECT_GT(specialized, b.peers.size() * 8 / 10)
      << specialized << "/" << b.peers.size();

  // Key space covered: every key has a responsible peer.
  for (uint64_t k = 0; k < 256; k += 9) {
    Key key = Key::FromUint(k, 8);
    bool covered = false;
    for (auto* p : b.peers) {
      if (p->IsResponsibleFor(key)) covered = true;
    }
    EXPECT_TRUE(covered) << key;
  }

  // All data sits at responsible peers (drained through commits).
  for (auto* p : b.peers) {
    for (const auto& [k, v] : p->storage()) {
      EXPECT_TRUE(p->IsResponsibleFor(k));
    }
  }
}

TEST(OnlineExchangeTest, FullyMessageDrivenBootstrapServesLookups) {
  BootstrapNet b(16, 11, /*items_per_peer=*/16);
  // Remember everything that was seeded.
  std::vector<std::pair<Key, std::string>> all;
  for (auto* p : b.peers) {
    for (const auto& [k, v] : p->storage()) all.emplace_back(k, v);
  }
  // Exchange (construction) + maintenance (ref health) together.
  std::vector<std::unique_ptr<MaintenanceAgent>> maint;
  MaintenanceAgent::Options mopts;
  mopts.period = 20.0;
  for (auto* p : b.peers) {
    maint.push_back(
        std::make_unique<MaintenanceAgent>(&b.sim, p, Rng(900 + p->id()), mopts));
    maint.back()->Start();
  }
  for (auto& agent : b.agents) agent->Start();
  b.sim.RunUntil(900);

  size_t found = 0, probed = 0;
  for (size_t i = 0; i < all.size(); i += 5) {
    ++probed;
    bool done = false, got = false;
    const auto& [key, value] = all[i];
    b.peers[i % b.peers.size()]->Retrieve(
        key, [&](Result<PGridPeer::Reply> r) {
          done = true;
          if (!r.ok()) return;
          for (const auto& v : r->values) {
            if (v == value) got = true;
          }
        });
    while (!done && b.sim.pending() > 0) b.sim.Run(1);
    if (got) ++found;
  }
  // The vast majority of seeded data must be findable through the overlay
  // that was built purely from messages.
  EXPECT_GE(found, probed * 9 / 10) << found << "/" << probed;
}

}  // namespace
}  // namespace gridvine
