#include "pgrid/exchange.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/hash.h"
#include "pgrid/pgrid_builder.h"

namespace gridvine {
namespace {

struct Overlay {
  explicit Overlay(size_t n, int key_depth = 8, uint64_t seed = 1)
      : net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(seed)) {
    PGridPeer::Options opts;
    opts.key_depth = key_depth;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(seed * 31 + i)[0], opts));
      peers.push_back(owned.back().get());
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
};

// Seeds every peer with data spread over the key space.
void SeedData(Overlay* o, int items_per_peer, uint64_t seed = 99) {
  Rng rng(seed);
  int i = 0;
  for (auto* p : o->peers) {
    for (int j = 0; j < items_per_peer; ++j) {
      Key k = UniformHash("item-" + std::to_string(i++) + "-" +
                              std::to_string(rng.UniformInt(0, 1 << 20)),
                          8);
      p->InsertLocal(k, "value-" + std::to_string(i));
    }
  }
}

TEST(ExchangeTest, PairSplitsWhenOverloaded) {
  Overlay o(2);
  SeedData(&o, 100);
  ExchangeProtocol::Options opts;
  opts.max_local_keys = 64;
  ExchangeProtocol ex({o.peers[0], o.peers[1]}, Rng(5), opts);
  ex.Encounter(o.peers[0], o.peers[1]);
  EXPECT_EQ(ex.splits(), 1u);
  EXPECT_EQ(o.peers[0]->path().bits(), "0");
  EXPECT_EQ(o.peers[1]->path().bits(), "1");
  // Cross references installed at level 0.
  EXPECT_EQ(o.peers[0]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(o.peers[1]->routing()->RefsAt(0).size(), 1u);
}

TEST(ExchangeTest, PairReplicatesWhenUnderloaded) {
  Overlay o(2);
  SeedData(&o, 5);
  ExchangeProtocol::Options opts;
  opts.max_local_keys = 64;
  ExchangeProtocol ex({o.peers[0], o.peers[1]}, Rng(5), opts);
  ex.Encounter(o.peers[0], o.peers[1]);
  EXPECT_EQ(ex.splits(), 0u);
  EXPECT_TRUE(o.peers[0]->path().empty());
  // Replicas are cross-linked and hold the same content.
  EXPECT_EQ(o.peers[0]->routing()->replicas().size(), 1u);
  EXPECT_EQ(o.peers[0]->StorageSize(), o.peers[1]->StorageSize());
}

TEST(ExchangeTest, SpecializationAgainstLongerPath) {
  Overlay o(2);
  SeedData(&o, 100);
  o.peers[1]->SetPath(Key::FromBits("01").value());
  ExchangeProtocol ex({o.peers[0], o.peers[1]}, Rng(5), {});
  ex.Encounter(o.peers[0], o.peers[1]);
  // Peer 0 (empty path) specializes away from peer 1's subtree: bit 0 of
  // peer 1 is 0, so peer 0 takes "1".
  EXPECT_EQ(o.peers[0]->path().bits(), "1");
  EXPECT_EQ(o.peers[0]->routing()->RefsAt(0).size(), 1u);
}

TEST(ExchangeTest, DivergentPathsExchangeRefs) {
  Overlay o(4);
  o.peers[0]->SetPath(Key::FromBits("00").value());
  o.peers[1]->SetPath(Key::FromBits("01").value());
  o.peers[2]->SetPath(Key::FromBits("10").value());
  // Give peer 0 a level-0 ref that peer 1 lacks.
  o.peers[0]->routing()->AddRef(0, o.peers[2]->id());
  ExchangeProtocol ex({o.peers[0], o.peers[1], o.peers[2]}, Rng(5), {});
  ex.Encounter(o.peers[0], o.peers[1]);
  // Divergence at level 1: mutual refs there.
  ASSERT_EQ(o.peers[0]->routing()->RefsAt(1).size(), 1u);
  EXPECT_EQ(o.peers[0]->routing()->RefsAt(1)[0], o.peers[1]->id());
  // Gossip: peer 1 learned peer 0's level-0 ref.
  ASSERT_EQ(o.peers[1]->routing()->RefsAt(0).size(), 1u);
  EXPECT_EQ(o.peers[1]->routing()->RefsAt(0)[0], o.peers[2]->id());
}

TEST(ExchangeTest, DataDrainsToResponsiblePeer) {
  Overlay o(2);
  o.peers[0]->SetPath(Key::FromBits("0").value());
  o.peers[1]->SetPath(Key::FromBits("1").value());
  o.peers[0]->InsertLocal(Key::FromBits("11000000").value(), "belongs-to-1");
  ExchangeProtocol ex({o.peers[0], o.peers[1]}, Rng(5), {});
  ex.Encounter(o.peers[0], o.peers[1]);
  EXPECT_EQ(o.peers[0]->StorageSize(), 0u);
  EXPECT_EQ(o.peers[1]->StorageSize(), 1u);
}

TEST(ExchangeTest, ConvergesToSpecializedNetwork) {
  Overlay o(32);
  SeedData(&o, 20);
  ExchangeProtocol::Options opts;
  opts.max_local_keys = 40;
  ExchangeProtocol ex(o.peers, Rng(5), opts);
  ex.RunRandomEncounters(5000);
  EXPECT_GT(ex.SpecializedFraction(), 0.95);
  // Paths must partition responsibility: for random keys, at least one peer
  // responsible.
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    Key k = Key::FromUint(uint64_t(rng.UniformInt(0, 255)), 8);
    bool covered = false;
    for (auto* p : o.peers) {
      if (p->IsResponsibleFor(k)) covered = true;
    }
    EXPECT_TRUE(covered) << k;
  }
  EXPECT_GT(ex.splits(), 10u);
}

TEST(ExchangeTest, LookupsWorkAfterConstructionAndRepair) {
  Overlay o(16);
  SeedData(&o, 30, /*seed=*/123);
  // Record all (key, value) pairs to query later.
  std::vector<std::pair<Key, std::string>> all;
  for (auto* p : o.peers) {
    for (const auto& [k, v] : p->storage()) all.emplace_back(k, v);
  }
  ExchangeProtocol::Options opts;
  opts.max_local_keys = 50;
  ExchangeProtocol ex(o.peers, Rng(5), opts);
  ex.RunRandomEncounters(3000);
  // A final repair pass fills ref gaps (continuous repair in real P-Grid).
  Rng rng(6);
  PGridBuilder::WireRouting(o.peers, &rng, 2);

  size_t found = 0;
  size_t checked = 0;
  for (size_t i = 0; i < all.size(); i += 7) {
    const auto& [k, v] = all[i];
    ++checked;
    o.peers[i % o.peers.size()]->Retrieve(
        k, [&, v](Result<PGridPeer::LookupResult> r) {
          if (!r.ok()) return;
          for (const auto& got : r->values) {
            if (got == v) {
              ++found;
              return;
            }
          }
        });
  }
  o.sim.Run();
  // Data may be replicated (duplicates are fine); every queried value must be
  // found somewhere.
  EXPECT_EQ(found, checked);
}

}  // namespace
}  // namespace gridvine
