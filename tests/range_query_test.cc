// Tests for key-space range support: the order-preserving hash's subtree
// computation, the overlay's range multicast ("shower"), and prefix-literal
// queries at the mediation layer.

#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "pgrid/pgrid_builder.h"
#include "gridvine/gridvine_network.h"

namespace gridvine {
namespace {

TEST(SubtreeForTest, ContainsAllPrefixedValues) {
  OrderPreservingHash h(32);
  Key subtree = h.SubtreeFor("asp");
  for (const char* value :
       {"asp", "aspergillus", "aspergillus niger", "aspzzz", "asp123"}) {
    EXPECT_TRUE(subtree.IsPrefixOf(h(value)))
        << value << " not under " << subtree;
  }
}

TEST(SubtreeForTest, ExcludesFarValues) {
  OrderPreservingHash h(32);
  Key subtree = h.SubtreeFor("asp");
  EXPECT_FALSE(subtree.IsPrefixOf(h("penicillium")));
  EXPECT_FALSE(subtree.IsPrefixOf(h("zebra")));
  // Non-empty prefix => non-trivial subtree.
  EXPECT_GT(subtree.length(), 0);
}

TEST(SubtreeForTest, LongerPrefixGivesDeeperSubtree) {
  OrderPreservingHash h(40);
  EXPECT_GT(h.SubtreeFor("aspergillus").length(),
            h.SubtreeFor("asp").length());
}

TEST(SubtreeForTest, EmptyPrefixIsWholeSpace) {
  OrderPreservingHash h(16);
  EXPECT_EQ(h.SubtreeFor("").length(), 0);
}

// ---- Overlay-level multicast ------------------------------------------------

struct CountingNodePayload : MessageBody {
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("test.count");
    return t;
  }
};

TEST(RangeMulticastTest, ReachesEveryRegionExactlyOnce) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(3));
  PGridPeer::Options opts;
  opts.key_depth = 10;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  for (int i = 0; i < 32; ++i) {
    owned.push_back(std::make_unique<PGridPeer>(
        &sim, &net, Mt64Head<1>(7 + i)[0], opts));
    peers.push_back(owned.back().get());
  }
  Rng rng(5);
  PGridBuilder::BuildBalanced(peers, &rng);  // 32 peers, 5-bit paths

  std::map<NodeId, int> deliveries;
  for (auto* p : peers) {
    p->SetExtensionHandler(
        [&deliveries, id = p->id()](NodeId, std::shared_ptr<const MessageBody>,
                                    int) { ++deliveries[id]; });
  }

  // Multicast to the subtree "01" — 8 of the 32 peers (paths 01000..01111).
  Key prefix = Key::FromBits("01").value();
  peers[17]->RouteRange(prefix, std::make_shared<CountingNodePayload>());
  sim.Run();

  int reached = 0;
  for (auto* p : peers) {
    if (prefix.IsPrefixOf(p->path())) {
      EXPECT_EQ(deliveries[p->id()], 1)
          << "peer " << p->path() << " deliveries";
      if (deliveries[p->id()] > 0) ++reached;
    } else {
      EXPECT_EQ(deliveries.count(p->id()), 0u)
          << "peer " << p->path() << " outside the range got the multicast";
    }
  }
  EXPECT_EQ(reached, 8);
}

TEST(RangeMulticastTest, RootPrefixFloodsEveryPeer) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(3));
  PGridPeer::Options opts;
  opts.key_depth = 8;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  for (int i = 0; i < 16; ++i) {
    owned.push_back(std::make_unique<PGridPeer>(
        &sim, &net, Mt64Head<1>(9 + i)[0], opts));
    peers.push_back(owned.back().get());
  }
  Rng rng(5);
  PGridBuilder::BuildBalanced(peers, &rng);

  std::set<NodeId> delivered;
  for (auto* p : peers) {
    p->SetExtensionHandler(
        [&delivered, id = p->id()](NodeId, std::shared_ptr<const MessageBody>,
                                   int) { delivered.insert(id); });
  }
  peers[3]->RouteRange(Key(), std::make_shared<CountingNodePayload>());
  sim.Run();
  EXPECT_EQ(delivered.size(), peers.size());
}

// ---- Mediation-layer prefix queries ------------------------------------------

class RangeQueryTest : public ::testing::Test {
 protected:
  RangeQueryTest() : net_(MakeOptions()) {}

  static GridVineNetwork::Options MakeOptions() {
    GridVineNetwork::Options o;
    o.num_peers = 32;
    o.key_depth = 24;
    o.seed = 55;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.01;
    o.peer.query_timeout = 2.0;
    return o;
  }

  void SetUp() override {
    int i = 0;
    for (const char* organism :
         {"Aspergillus niger", "Aspergillus flavus", "Aspergillus fumigatus",
          "Penicillium chrysogenum", "Saccharomyces cerevisiae"}) {
      Triple t(Term::Uri("seq" + std::to_string(i)),
               Term::Uri("EMBL#Organism"), Term::Literal(organism));
      ASSERT_TRUE(net_.InsertTriple(size_t(i % net_.size()), t).ok());
      ++i;
    }
  }

  GridVineNetwork net_;
};

TEST_F(RangeQueryTest, PrefixLiteralWithoutOtherConstantsUsesRange) {
  // (?x, ?p, "Aspergillus%"): no exact constant anywhere — only the range
  // dispatch can resolve this.
  TriplePatternQuery q("x",
                       TriplePattern(Term::Var("x"), Term::Var("p"),
                                     Term::Literal("Aspergillus%")));
  auto res = net_.SearchFor(9, q);
  ASSERT_TRUE(res.status.ok()) << res.status;
  EXPECT_EQ(res.items.size(), 3u);
  for (const auto& item : res.items) {
    EXPECT_TRUE(item.value.value().find("seq") == 0);
  }
}

TEST_F(RangeQueryTest, MidPatternWildcardsStillMatchWithinRange) {
  TriplePatternQuery q("x",
                       TriplePattern(Term::Var("x"), Term::Var("p"),
                                     Term::Literal("Aspergillus f%")));
  auto res = net_.SearchFor(2, q);
  ASSERT_TRUE(res.status.ok());
  // flavus and fumigatus.
  EXPECT_EQ(res.items.size(), 2u);
}

TEST_F(RangeQueryTest, NoMatchRangeIsEmptyNotError) {
  TriplePatternQuery q("x",
                       TriplePattern(Term::Var("x"), Term::Var("p"),
                                     Term::Literal("Zygomycota%")));
  auto res = net_.SearchFor(2, q);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.items.empty());
}

TEST_F(RangeQueryTest, ExactConstantStillPreferredOverRange) {
  // A predicate constant exists: the query must resolve through the single
  // destination (cheap), not the multicast — observable via early finish
  // well under the 2 s window.
  TriplePatternQuery q("x",
                       TriplePattern(Term::Var("x"), Term::Uri("EMBL#Organism"),
                                     Term::Literal("Aspergillus%")));
  auto res = net_.SearchFor(9, q);
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.items.size(), 3u);
  EXPECT_LT(res.latency, 1.0);  // early finish: not pinned to the window
}

TEST_F(RangeQueryTest, LeadingWildcardCannotUseRange) {
  // "%niger": no prefix to hash — and no other constant: unresolvable, so
  // the query returns empty after its window (not an error).
  TriplePatternQuery q("x", TriplePattern(Term::Var("x"), Term::Var("p"),
                                          Term::Literal("%niger")));
  auto res = net_.SearchFor(1, q);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(res.items.empty());
}

}  // namespace
}  // namespace gridvine
