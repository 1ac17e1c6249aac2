// Mt64Head computes the first K outputs of std::mt19937_64(seed) from the
// seeding words they read; every K it allows must reproduce the generator's
// own draws.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <utility>

#include "common/rng.h"

namespace gridvine {
namespace {

constexpr size_t kMaxHead = 156;

template <size_t K>
bool HeadMatches(uint64_t seed, const std::array<uint64_t, kMaxHead>& want) {
  const std::array<uint64_t, K> head = Mt64Head<K>(seed);
  return std::equal(head.begin(), head.end(), want.begin());
}

/// The smallest K in 1..156 whose Mt64Head<K>(seed) differs from the
/// generator's first K draws, or 0 when all agree.
template <size_t... Ks>
size_t FirstMismatchingHead(uint64_t seed, std::index_sequence<Ks...>) {
  std::mt19937_64 engine(seed);
  std::array<uint64_t, kMaxHead> want{};
  for (uint64_t& w : want) w = engine();
  size_t bad = 0;
  ((bad = bad == 0 && !HeadMatches<Ks + 1>(seed, want) ? Ks + 1 : bad), ...);
  return bad;
}

size_t FirstMismatchingHead(uint64_t seed) {
  return FirstMismatchingHead(seed, std::make_index_sequence<kMaxHead>());
}

TEST(Mt64HeadTest, MatchesGeneratorOnEdgeSeeds) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{5489}, ~uint64_t{0}}) {
    EXPECT_EQ(FirstMismatchingHead(seed), 0u) << "seed " << seed;
  }
}

TEST(Mt64HeadTest, MatchesGeneratorOnRandomSeeds) {
  SmallRng seeds(20070923);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t seed = seeds.Next();
    ASSERT_EQ(FirstMismatchingHead(seed), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace gridvine
