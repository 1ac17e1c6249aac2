// Cross-cutting property tests: randomized sweeps over seeds/sizes checking
// the invariants the system's correctness rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "pgrid/pgrid_builder.h"
#include "store/triple_store.h"

namespace gridvine {
namespace {

// --- Overlay routing invariants ----------------------------------------------

struct SweepParam {
  uint64_t seed;
  size_t peers;
};

class OverlaySweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OverlaySweepTest, GreedyRoutingAlwaysTerminatesWithinDepth) {
  auto [seed, n] = GetParam();
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(seed));
  PGridPeer::Options opts;
  opts.key_depth = 12;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  for (size_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<PGridPeer>(
        &sim, &net, Mt64Head<1>(seed * 3 + i)[0], opts));
    peers.push_back(owned.back().get());
  }
  Rng rng(seed + 1);
  PGridBuilder::BuildBalanced(peers, &rng, 2);

  int max_depth = 0;
  for (auto* p : peers) max_depth = std::max(max_depth, p->path().length());

  Rng walk_rng(seed + 2);
  for (int trial = 0; trial < 64; ++trial) {
    Key key = Key::FromUint(uint64_t(walk_rng.UniformInt(0, 4095)), 12);
    PGridPeer* cur = peers[size_t(
        walk_rng.UniformInt(0, int64_t(peers.size()) - 1))];
    int hops = 0;
    while (!cur->IsResponsibleFor(key)) {
      auto next = cur->routing()->NextHop(key, &walk_rng);
      ASSERT_TRUE(next.has_value());
      // Greedy progress: the next peer shares strictly more prefix.
      PGridPeer* nxt = peers[*next];
      ASSERT_GT(nxt->path().CommonPrefixLength(key),
                cur->path().CommonPrefixLength(key));
      cur = nxt;
      ASSERT_LE(++hops, max_depth);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, OverlaySweepTest,
    ::testing::Values(SweepParam{1, 8}, SweepParam{2, 17}, SweepParam{3, 32},
                      SweepParam{4, 100}, SweepParam{5, 256},
                      SweepParam{6, 11}));

// --- Store vs. brute-force consistency -----------------------------------------

class StoreConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreConsistencyTest, SelectMatchesBruteForce) {
  Rng rng(GetParam());
  TripleStore store;
  std::vector<Triple> all;
  auto rand_name = [&](const char* prefix, int max) {
    return std::string(prefix) + std::to_string(rng.UniformInt(0, max));
  };
  for (int i = 0; i < 300; ++i) {
    Triple t(Term::Uri(rand_name("s", 30)), Term::Uri(rand_name("p", 8)),
             rng.Bernoulli(0.3)
                 ? Term::Uri(rand_name("o", 20))
                 : Term::Literal(rand_name("value ", 20)));
    if (!store.Contains(t)) all.push_back(t);
    ASSERT_TRUE(store.Insert(t).ok());
  }
  auto rand_term = [&](TriplePos pos) -> Term {
    int dice = int(rng.UniformInt(0, 3));
    if (dice == 0) return Term::Var("v" + std::to_string(int(pos)));
    switch (pos) {
      case TriplePos::kSubject:
        return Term::Uri(rand_name("s", 30));
      case TriplePos::kPredicate:
        return Term::Uri(rand_name("p", 8));
      case TriplePos::kObject:
        if (dice == 1) return Term::Literal("%" + rand_name("", 20) + "%");
        return Term::Literal(rand_name("value ", 20));
    }
    return Term::Var("x");
  };
  for (int q = 0; q < 60; ++q) {
    TriplePattern pattern(rand_term(TriplePos::kSubject),
                          rand_term(TriplePos::kPredicate),
                          rand_term(TriplePos::kObject));
    auto got = store.Select(pattern);
    std::vector<Triple> expected;
    for (const auto& t : all) {
      if (pattern.Matches(t)) expected.push_back(t);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << pattern.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreConsistencyTest,
                         ::testing::Values(10, 20, 30, 40));

// Differential test of the ID-encoded store against a naive full-scan
// reference, under a churny workload: random inserts, erases and reinserts
// over a small value universe. The erase volume is far above the lazy
// compaction threshold (dead fraction 1/2 at >= 64 slots), so posting-list
// compaction and slot renumbering run many times mid-test; the dictionary
// keeps growing across phases since erased terms are never forgotten.
class StoreChurnDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreChurnDifferentialTest, ChurnedStoreMatchesBruteForce) {
  Rng rng(GetParam());
  TripleStore store;
  std::vector<Triple> reference;  // live triples, naive model

  auto ref_contains = [&](const Triple& t) {
    for (const auto& r : reference) {
      if (r == t) return true;
    }
    return false;
  };
  auto ref_erase = [&](const Triple& t) {
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i] == t) {
        reference.erase(reference.begin() + long(i));
        return true;
      }
    }
    return false;
  };
  auto rand_name = [&](const char* prefix, int max) {
    return std::string(prefix) + std::to_string(rng.UniformInt(0, max));
  };
  // Each phase widens the universe so the dictionary grows monotonically
  // even while the live set shrinks and re-expands.
  for (int phase = 0; phase < 3; ++phase) {
    int width = 10 + phase * 15;
    auto rand_triple = [&]() {
      return Triple(Term::Uri(rand_name("s", width)),
                    Term::Uri(rand_name("p", 4 + phase)),
                    rng.Bernoulli(0.3)
                        ? Term::Uri(rand_name("o", width))
                        : Term::Literal(rand_name("value ", width)));
    };
    for (int op = 0; op < 400; ++op) {
      Triple t = rand_triple();
      if (rng.Bernoulli(0.35) && !reference.empty()) {
        // Erase: half the time a known-live triple, else a random one.
        if (rng.Bernoulli(0.5)) {
          t = reference[size_t(
              rng.UniformInt(0, int64_t(reference.size()) - 1))];
        }
        EXPECT_EQ(store.Erase(t), ref_erase(t));
      } else {
        bool fresh = !ref_contains(t);
        ASSERT_TRUE(store.Insert(t).ok());
        if (fresh) reference.push_back(t);
      }
      ASSERT_EQ(store.size(), reference.size());
    }
    size_t dict_before = store.dictionary_size();

    // Every index and the matcher agree with the naive model.
    auto rand_term = [&](TriplePos pos) -> Term {
      int dice = int(rng.UniformInt(0, 3));
      if (dice == 0) return Term::Var("v" + std::to_string(int(pos)));
      switch (pos) {
        case TriplePos::kSubject:
          return Term::Uri(rand_name("s", width));
        case TriplePos::kPredicate:
          return Term::Uri(rand_name("p", 4 + phase));
        case TriplePos::kObject:
          if (dice == 1) return Term::Literal("%" + rand_name("", width) + "%");
          return Term::Literal(rand_name("value ", width));
      }
      return Term::Var("x");
    };
    for (int q = 0; q < 40; ++q) {
      TriplePattern pattern(rand_term(TriplePos::kSubject),
                            rand_term(TriplePos::kPredicate),
                            rand_term(TriplePos::kObject));
      auto got = store.Select(pattern);
      std::vector<Triple> expected;
      for (const auto& t : reference) {
        if (pattern.Matches(t)) expected.push_back(t);
      }
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(got, expected) << pattern.ToString();
      EXPECT_EQ(store.MatchPattern(pattern).size(),
                store.Select(pattern).size());
    }
    // Queries only read; interning happens on insert.
    EXPECT_EQ(store.dictionary_size(), dict_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreChurnDifferentialTest,
                         ::testing::Values(7, 77, 777));

// Join differential: hash join output equals the nested-loop definition.
class JoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDifferentialTest, HashJoinMatchesNestedLoop) {
  Rng rng(GetParam());
  TripleStore store;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    .Insert(Triple(
                        Term::Uri(std::string("e").append(
                            std::to_string(rng.UniformInt(0, 40)))),
                        Term::Uri(std::string("p").append(
                            std::to_string(rng.UniformInt(0, 3)))),
                        Term::Literal(std::string("v").append(
                            std::to_string(rng.UniformInt(0, 15))))))
                    .ok());
  }
  for (int q = 0; q < 20; ++q) {
    auto left = store.MatchPattern(TriplePattern(
        Term::Var("x"), Term::Uri("p" + std::to_string(rng.UniformInt(0, 3))),
        Term::Var("a")));
    auto right = store.MatchPattern(TriplePattern(
        Term::Var("x"), Term::Uri("p" + std::to_string(rng.UniformInt(0, 3))),
        Term::Var("b")));
    auto got = TripleStore::Join(left, right);

    // Nested-loop reference: all compatible pairs, merged bindings.
    std::vector<std::map<std::string, Term>> expected;
    for (const auto& l : left) {
      for (const auto& r : right) {
        bool compatible = true;
        for (const auto& [var, term] : l) {
          auto it = r.find(var);
          if (it != r.end() && !(it->second == term)) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
        auto merged = l;
        merged.insert(r.begin(), r.end());
        expected.push_back(std::move(merged));
      }
    }
    auto canon = [](std::vector<std::map<std::string, Term>> rows) {
      std::vector<std::string> out;
      for (const auto& row : rows) {
        std::string s;
        for (const auto& [var, term] : row) {
          s += var + "=" + term.ToString() + ";";
        }
        out.push_back(std::move(s));
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    ASSERT_EQ(canon(got), canon(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDifferentialTest,
                         ::testing::Values(5, 55, 555));

// --- Serialization round trips under random content -----------------------------

class SerializationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializationFuzzTest, TripleRoundTripsArbitraryBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    auto rand_string = [&](bool allow_weird) {
      std::string s;
      size_t len = size_t(rng.UniformInt(1, 24));
      for (size_t j = 0; j < len; ++j) {
        char c = char(rng.UniformInt(allow_weird ? 1 : 33, 126));
        s.push_back(c);
      }
      return s;
    };
    Triple t(Term::Uri(rand_string(false)), Term::Uri(rand_string(false)),
             Term::Literal(rand_string(true)));  // literals may hold \t, \\ ...
    auto parsed = Triple::Parse(t.Serialize());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Values(100, 200, 300));

// --- Order-preserving hash: total-order agreement --------------------------------

class HashOrderSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HashOrderSweepTest, SortingByKeyEqualsSortingByString) {
  int depth = GetParam();
  OrderPreservingHash h(depth);
  Rng rng(uint64_t(depth) * 31);
  std::vector<std::string> values;
  for (int i = 0; i < 120; ++i) {
    std::string s;
    size_t len = size_t(rng.UniformInt(1, 10));
    for (size_t j = 0; j < len; ++j) {
      s.push_back(char('a' + rng.UniformInt(0, 25)));
    }
    values.push_back(s);
  }
  auto by_string = values;
  std::sort(by_string.begin(), by_string.end());
  auto by_key = values;
  std::stable_sort(by_key.begin(), by_key.end(),
                   [&](const std::string& a, const std::string& b) {
                     Key ka = h(a), kb = h(b);
                     if (ka == kb) return a < b;  // collisions: tie-break
                     return ka < kb;
                   });
  EXPECT_EQ(by_key, by_string);
}

INSTANTIATE_TEST_SUITE_P(Depths, HashOrderSweepTest,
                         ::testing::Values(16, 24, 40, 64));

}  // namespace
}  // namespace gridvine
