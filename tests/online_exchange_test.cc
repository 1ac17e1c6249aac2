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
        peers.back()->InsertLocal(k, "v" + std::to_string(i * 100 + j));
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
        key, [&](Result<PGridPeer::LookupResult> r) {
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
