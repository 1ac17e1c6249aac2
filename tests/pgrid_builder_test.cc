#include "pgrid/pgrid_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "pgrid/load_stats.h"
#include "pgrid/pgrid_peer.h"

namespace gridvine {
namespace {

struct Overlay {
  explicit Overlay(size_t n, int key_depth = 10, uint64_t seed = 1)
      : net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(seed)) {
    PGridPeer::Options opts;
    opts.key_depth = key_depth;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(seed * 977 + i)[0], opts));
      peers.push_back(owned.back().get());
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
};

// The string-keyed WireRouting that the packed-path index replaced, kept as
// the reference the index must reproduce ref for ref and draw for draw.
void ReferenceWireRouting(const std::vector<PGridPeer*>& peers, Rng* rng,
                          int refs_per_level) {
  for (PGridPeer* p : peers) {
    p->routing()->SetPath(p->path());
    p->routing()->ClearLinks();
  }
  std::vector<std::pair<std::string, PGridPeer*>> by_path;
  by_path.reserve(peers.size());
  for (PGridPeer* q : peers) by_path.emplace_back(q->path().bits(), q);
  std::sort(by_path.begin(), by_path.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // [lo, hi) of entries whose path starts with `prefix`.
  auto prefix_range = [&](std::string prefix) {
    auto cmp = [](const auto& e, const std::string& v) { return e.first < v; };
    auto lo = std::lower_bound(by_path.begin(), by_path.end(), prefix, cmp);
    while (!prefix.empty() && prefix.back() == '1') prefix.pop_back();
    auto hi = by_path.end();
    if (!prefix.empty()) {
      prefix.back() = '1';
      hi = std::lower_bound(by_path.begin(), by_path.end(), prefix, cmp);
    }
    return std::make_pair(lo, hi);
  };
  for (PGridPeer* p : peers) {
    const Key& path = p->path();
    for (int level = 0; level < path.length(); ++level) {
      std::string prefix =
          path.Prefix(level).bits() + (path.bit(level) ? '0' : '1');
      auto [lo, hi] = prefix_range(prefix);
      const auto m = size_t(hi - lo);
      if (m == 0) continue;
      if (m <= size_t(refs_per_level) * 4) {
        std::vector<NodeId> candidates;
        for (auto it = lo; it != hi; ++it) {
          candidates.push_back(it->second->id());
        }
        rng->Shuffle(&candidates);
        int take = std::min<int>(refs_per_level, int(candidates.size()));
        for (int i = 0; i < take; ++i) {
          p->routing()->AddRef(level, candidates[size_t(i)]);
        }
      } else {
        int added = 0;
        for (int attempt = 0;
             attempt < refs_per_level * 4 && added < refs_per_level;
             ++attempt) {
          NodeId id = (lo + ptrdiff_t(rng->UniformInt(0, int64_t(m) - 1)))
                          ->second->id();
          if (p->routing()->AddRef(level, id)) ++added;
        }
      }
    }
    auto [lo, hi] = prefix_range(path.bits());
    for (auto it = lo; it != hi; ++it) {
      PGridPeer* q = it->second;
      if (q != p && q->path() == path) p->routing()->AddReplica(q->id());
    }
  }
}

// Gives `ref` the paths `built` ended up with, wires it with the reference
// from `ref_rng`, and expects the same refs per level, the same replica
// lists (in order) and the same number of draws as `built` took.
void ExpectWiringMatchesReference(const Overlay& built, Rng* built_rng,
                                  Overlay* ref, Rng* ref_rng,
                                  int refs_per_level) {
  ASSERT_EQ(built.peers.size(), ref->peers.size());
  for (size_t i = 0; i < built.peers.size(); ++i) {
    ref->peers[i]->SetPath(built.peers[i]->path());
  }
  ReferenceWireRouting(ref->peers, ref_rng, refs_per_level);
  for (size_t i = 0; i < built.peers.size(); ++i) {
    const RoutingTable& got = *built.peers[i]->routing();
    const RoutingTable& want = *ref->peers[i]->routing();
    ASSERT_EQ(got.levels(), want.levels()) << "peer " << i;
    for (int level = 0; level < got.levels(); ++level) {
      const RefSpan g = got.RefsAt(level), w = want.RefsAt(level);
      ASSERT_EQ(std::vector<NodeId>(g.begin(), g.end()),
                std::vector<NodeId>(w.begin(), w.end()))
          << "peer " << i << " level " << level;
    }
    ASSERT_EQ(got.replicas(), want.replicas()) << "peer " << i;
  }
  EXPECT_EQ(built_rng->engine()(), ref_rng->engine()());
}

TEST(PGridBuilderTest, BalancedCoversAllPaths) {
  Overlay o(8);
  Rng rng(3);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  std::set<std::string> paths;
  for (auto* p : o.peers) {
    EXPECT_EQ(p->path().length(), 3);
    paths.insert(p->path().bits());
  }
  EXPECT_EQ(paths.size(), 8u);
}

TEST(PGridBuilderTest, NonPowerOfTwoCreatesReplicas) {
  Overlay o(10);  // depth 3, 8 leaves, 2 peers doubled up
  Rng rng(3);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  std::set<std::string> paths;
  size_t replicas = 0;
  for (auto* p : o.peers) {
    paths.insert(p->path().bits());
    replicas += p->routing()->replicas().size();
  }
  EXPECT_EQ(paths.size(), 8u);
  EXPECT_EQ(replicas, 4u);  // two replica pairs, links both ways
}

TEST(PGridBuilderTest, RoutingRefsRespectInvariant) {
  Overlay o(16);
  Rng rng(3);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  for (auto* p : o.peers) {
    for (int level = 0; level < p->path().length(); ++level) {
      for (NodeId ref : p->routing()->RefsAt(level)) {
        const Key& other = o.peers[ref]->path();
        // Ref must live in the complementary subtree at `level`.
        EXPECT_EQ(other.CommonPrefixLength(p->path()), level);
        EXPECT_NE(other.bit(level), p->path().bit(level));
      }
      EXPECT_GE(p->routing()->RefsAt(level).size(), 1u);
    }
  }
}

TEST(PGridBuilderTest, EveryKeyRoutableFromEveryPeer) {
  Overlay o(32);
  Rng rng(9);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  // Walk greedy routing by hand for every (peer, key) pair.
  Rng walk_rng(5);
  for (auto* origin : o.peers) {
    for (uint64_t k = 0; k < 32; ++k) {
      Key key = Key::FromUint(k, 5);
      PGridPeer* cur = origin;
      int hops = 0;
      while (!cur->IsResponsibleFor(key)) {
        auto next = cur->routing()->NextHop(key, &walk_rng);
        ASSERT_TRUE(next.has_value())
            << "dead end from " << cur->path() << " toward " << key;
        cur = o.peers[*next];
        ASSERT_LE(++hops, 5) << "too many hops";
      }
      EXPECT_LE(hops, 5);
    }
  }
}

TEST(PGridBuilderTest, AdaptiveBalancesSkewedLoad) {
  // Numeric strings occupy only the digit band of the order-preserving
  // alphabet and are length-skewed, concentrating keys in a narrow region.
  OrderPreservingHash h(16);
  std::vector<Key> sample;
  for (int i = 0; i < 2000; ++i) {
    sample.push_back(h(std::to_string(i)));
  }
  Overlay balanced(32, /*key_depth=*/16), adaptive(32, /*key_depth=*/16);
  Rng rng1(3), rng2(3);
  PGridBuilder::BuildBalanced(balanced.peers, &rng1);
  PGridBuilder::BuildAdaptive(adaptive.peers, sample, &rng2);

  auto assign = [&](std::vector<PGridPeer*>& peers) {
    for (const Key& k : sample) {
      for (auto* p : peers) {
        if (p->path().IsPrefixOf(k)) {
          p->InsertLocal(k, "v");
          break;
        }
      }
    }
  };
  assign(balanced.peers);
  assign(adaptive.peers);
  LoadStats sb = ComputeLoadStats(balanced.peers);
  LoadStats sa = ComputeLoadStats(adaptive.peers);
  // The adaptive trie must spread the skewed keys far better.
  EXPECT_LT(sa.gini, sb.gini);
  EXPECT_LT(sa.max_over_mean, sb.max_over_mean);
}

TEST(PGridBuilderTest, AdaptivePathsCoverKeySpace) {
  OrderPreservingHash h(10);
  std::vector<Key> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back(h(std::string("x").append(std::to_string(i * i))));
  }
  Overlay o(20);
  Rng rng(4);
  PGridBuilder::BuildAdaptive(o.peers, sample, &rng);
  // Coverage: every sample key must have exactly one responsible leaf path
  // among distinct paths (plus replicas sharing it).
  for (const Key& k : sample) {
    std::set<std::string> responsible;
    for (auto* p : o.peers) {
      if (p->path().IsPrefixOf(k)) responsible.insert(p->path().bits());
    }
    EXPECT_EQ(responsible.size(), 1u) << "key " << k;
  }
}

TEST(PGridBuilderTest, AdaptiveWithEmptySampleFallsBack) {
  Overlay o(8);
  Rng rng(4);
  PGridBuilder::BuildAdaptive(o.peers, {}, &rng);
  for (auto* p : o.peers) EXPECT_EQ(p->path().length(), 3);
}

TEST(PGridBuilderTest, SinglePeerOwnsEverything) {
  Overlay o(1);
  Rng rng(4);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  EXPECT_EQ(o.peers[0]->path().length(), 0);
  EXPECT_TRUE(o.peers[0]->IsResponsibleFor(Key::FromUint(5, 8)));
}

TEST(PGridBuilderTest, RebuildAfterBuildDropsStaleLinks) {
  // Regression: rebuilding an already-wired overlay with different paths
  // must not leave refs from the old topology behind (they violate the
  // complementary-subtree invariant and cause routing loops).
  OrderPreservingHash h(10);
  std::vector<Key> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(h(std::to_string(i * 37)));
  Overlay o(24, /*key_depth=*/10);
  Rng rng(5);
  PGridBuilder::BuildBalanced(o.peers, &rng);
  PGridBuilder::BuildAdaptive(o.peers, sample, &rng);
  for (auto* p : o.peers) {
    for (int level = 0; level < p->path().length(); ++level) {
      for (NodeId ref : p->routing()->RefsAt(level)) {
        const Key& other = o.peers[ref]->path();
        EXPECT_EQ(other.CommonPrefixLength(p->path()), level)
            << p->path() << " -> " << other << " at level " << level;
        EXPECT_NE(other.bit(level), p->path().bit(level));
      }
    }
    for (NodeId rep : p->routing()->replicas()) {
      EXPECT_EQ(o.peers[rep]->path(), p->path());
    }
  }
  // Every sampled key must be routable from every 4th peer.
  Rng walk_rng(9);
  for (size_t i = 0; i < sample.size(); i += 25) {
    PGridPeer* cur = o.peers[i % o.peers.size()];
    int hops = 0;
    while (!cur->IsResponsibleFor(sample[i])) {
      auto next = cur->routing()->NextHop(sample[i], &walk_rng);
      ASSERT_TRUE(next.has_value());
      cur = o.peers[*next];
      ASSERT_LE(++hops, 10);
    }
  }
}

TEST(PGridBuilderTest, BalancedWiringMatchesReference) {
  for (size_t n : {1, 2, 3, 10, 1000, 4097}) {
    for (int refs : {2, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " refs=" + std::to_string(refs));
      Overlay built(n, /*key_depth=*/16), ref(n, /*key_depth=*/16);
      Rng built_rng(n), ref_rng(n);
      PGridBuilder::BuildBalanced(built.peers, &built_rng, refs);
      ExpectWiringMatchesReference(built, &built_rng, &ref, &ref_rng, refs);
    }
  }
}

// BuildAdaptive shuffles the peers before splitting; the reference side
// makes the same draws before wiring.
void ExpectAdaptiveWiringMatchesReference(size_t n, int key_depth,
                                          const std::vector<Key>& sample,
                                          int min_longest_path) {
  Overlay built(n, key_depth), ref(n, key_depth);
  Rng built_rng(11), ref_rng(11);
  PGridBuilder::BuildAdaptive(built.peers, sample, &built_rng);
  int longest = 0;
  for (auto* p : built.peers) longest = std::max(longest, p->path().length());
  ASSERT_GE(longest, min_longest_path);
  std::vector<PGridPeer*> shuffled = ref.peers;
  ref_rng.Shuffle(&shuffled);
  ExpectWiringMatchesReference(built, &built_rng, &ref, &ref_rng,
                               /*refs_per_level=*/2);
}

TEST(PGridBuilderTest, AdaptiveWiringMatchesReferenceOnSkewedSample) {
  OrderPreservingHash h(16);
  std::vector<Key> sample;
  for (int i = 0; i < 2000; ++i) sample.push_back(h(std::to_string(i)));
  ExpectAdaptiveWiringMatchesReference(500, 16, sample, 10);
}

TEST(PGridBuilderTest, AdaptiveWiringMatchesReferencePast64Bits) {
  // Keys sharing a ~80-bit prefix: each split on a shared bit peels one peer
  // off, so the deep paths run past one packed word.
  OrderPreservingHash h(96);
  std::vector<Key> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back(h("pppppppppppppppp" + std::to_string(i)));
  }
  ExpectAdaptiveWiringMatchesReference(300, 96, sample, 65);
}

TEST(PGridBuilderTest, WiringMatchesReferenceOnOverlappingPaths) {
  // Paths mid-exchange need not be prefix-free: random paths of 0-100 bits
  // drawn from a small pool, so prefixes, duplicates and empty paths mix.
  Rng gen(3);
  std::vector<Key> pool;
  for (int i = 0; i < 60; ++i) {
    std::string bits;
    const int64_t len = gen.UniformInt(0, i < 30 ? 6 : 100);
    for (int64_t b = 0; b < len; ++b) bits += gen.Bernoulli(0.5) ? '1' : '0';
    pool.push_back(Key::FromBits(bits).value());
  }
  Overlay built(400), ref(400);
  for (auto* p : built.peers) p->SetPath(gen.PickOne(pool));
  Rng built_rng(8), ref_rng(8);
  PGridBuilder::WireRouting(built.peers, &built_rng, /*refs_per_level=*/2);
  ExpectWiringMatchesReference(built, &built_rng, &ref, &ref_rng, 2);
}

TEST(LoadStatsTest, UniformLoadHasZeroGini) {
  Overlay o(4);
  for (auto* p : o.peers) {
    p->SetPath(Key());
    p->InsertLocal(
        UniformHash(std::string("k").append(std::to_string(p->id())), 8),
        "v");
  }
  LoadStats s = ComputeLoadStats(o.peers);
  EXPECT_EQ(s.total, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_NEAR(s.gini, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.max_over_mean, 1.0);
}

TEST(LoadStatsTest, SkewedLoadHasPositiveGini) {
  Overlay o(4);
  for (int i = 0; i < 30; ++i) {
    o.peers[0]->InsertLocal(Key::FromUint(uint64_t(i), 8), "v");
  }
  o.peers[1]->InsertLocal(Key::FromUint(200, 8), "v");
  LoadStats s = ComputeLoadStats(o.peers);
  EXPECT_GT(s.gini, 0.5);
  EXPECT_GT(s.max_over_mean, 3.0);
}

}  // namespace
}  // namespace gridvine
