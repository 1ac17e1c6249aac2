#include "common/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace gridvine {
namespace {

TEST(Fnv1aTest, KnownValuesAndDeterminism) {
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), Fnv1a64("a"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(UniformHashTest, ProducesRequestedDepth) {
  EXPECT_EQ(UniformHash("hello", 16).length(), 16);
  EXPECT_EQ(UniformHash("hello", 64).length(), 64);
  EXPECT_EQ(UniformHash("hello", 100).length(), 100);
  EXPECT_EQ(UniformHash("hello", 0).length(), 0);
}

TEST(UniformHashTest, Deterministic) {
  EXPECT_EQ(UniformHash("x", 32), UniformHash("x", 32));
}

TEST(UniformHashTest, LongerDepthExtendsPrefix) {
  Key short_key = UniformHash("foo", 16);
  Key long_key = UniformHash("foo", 64);
  EXPECT_TRUE(short_key.IsPrefixOf(long_key));
}

TEST(UniformHashTest, FirstBitRoughlyBalanced) {
  int ones = 0;
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    if (UniformHash("item-" + std::to_string(i), 8).bit(0) == 1) ++ones;
  }
  EXPECT_GT(ones, kN / 2 - 150);
  EXPECT_LT(ones, kN / 2 + 150);
}

TEST(OrderPreservingHashTest, DepthHonored) {
  OrderPreservingHash h(20);
  EXPECT_EQ(h("abc").length(), 20);
  EXPECT_EQ(h("").length(), 20);
}

TEST(OrderPreservingHashTest, Deterministic) {
  OrderPreservingHash h(24);
  EXPECT_EQ(h("EMBL#Organism"), h("EMBL#Organism"));
}

TEST(OrderPreservingHashTest, PreservesOrderOnExamples) {
  OrderPreservingHash h(32);
  // Case-insensitive lexicographic order must map to key order.
  std::vector<std::string> sorted = {"aardvark", "abacus",   "banana",
                                     "bandana",  "cucumber", "zebra"};
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    EXPECT_TRUE(h(sorted[i]) < h(sorted[i + 1]) || h(sorted[i]) == h(sorted[i + 1]))
        << sorted[i] << " vs " << sorted[i + 1];
  }
}

TEST(OrderPreservingHashTest, SharedPrefixStringsShareKeyPrefix) {
  OrderPreservingHash h(32);
  Key a = h("protein_alpha");
  Key b = h("protein_beta");
  // 8 shared leading characters => a substantial shared key prefix.
  EXPECT_GE(a.CommonPrefixLength(b), 8);
}

// Property: for randomly generated string pairs, order is preserved.
class OrderPreservationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderPreservationPropertyTest, RandomPairsOrdered) {
  OrderPreservingHash h(40);
  Rng rng{uint64_t(GetParam())};
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_#";
  auto random_string = [&]() {
    size_t len = size_t(rng.UniformInt(1, 18));
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s += alphabet[size_t(rng.UniformInt(0, int64_t(alphabet.size()) - 1))];
    }
    return s;
  };
  for (int i = 0; i < 500; ++i) {
    std::string a = random_string();
    std::string b = random_string();
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    // a < b lexicographically (all-lowercase alphabet) => hash(a) <= hash(b)
    Key ka = h(a);
    Key kb = h(b);
    EXPECT_FALSE(kb < ka) << "order violated: '" << a << "' -> " << ka.bits()
                          << " vs '" << b << "' -> " << kb.bits();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderPreservationPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Reference for the differential test below: the original digit-vector
// long multiplication (double the base-39 fraction digit by digit, the carry
// out of the top digit is the next bit) — slow, but obviously exact.
std::string ReferenceOrderPreservingBits(std::string_view data, int depth) {
  constexpr int kRadix = 39;
  constexpr size_t kMaxDigits = 24;
  auto char_digit = [](unsigned char c) {
    c = static_cast<unsigned char>(std::tolower(c));
    if (c < '0') return 0;
    if (c <= '9') return 1 + (c - '0');
    if (c < 'a') return 11;
    if (c <= 'z') return 12 + (c - 'a');
    return kRadix - 1;
  };
  int digits[kMaxDigits] = {};
  for (size_t i = 0; i < kMaxDigits && i < data.size(); ++i) {
    digits[i] = char_digit(static_cast<unsigned char>(data[i]));
  }
  std::string bits;
  for (int b = 0; b < depth; ++b) {
    int carry = 0;
    for (size_t i = kMaxDigits; i-- > 0;) {
      int v = digits[i] * 2 + carry;
      digits[i] = v % kRadix;
      carry = v / kRadix;
    }
    bits.push_back(carry ? '1' : '0');
  }
  return bits;
}

TEST(OrderPreservingHashTest, MatchesDigitVectorReference) {
  std::vector<std::string> inputs = {
      "",
      "a",
      "~",
      std::string(24, '~'),
      std::string(40, '~'),
      "abc" + std::string(24, '~'),  // SubtreeFor's high bound
      std::string(30, 'z'),
      std::string(24, '\0'),
      "EMBL#Organism",
      "a string well beyond the twenty-four digit window",
      "\xff\xfe\x80 non-ASCII \xc3\xa9\xe2\x82\xac",
      "UPPER lower 0123456789 !\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"};
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string s(size_t(rng.UniformInt(0, 40)), '\0');
    for (char& c : s) c = static_cast<char>(rng.UniformInt(0, 255));
    inputs.push_back(std::move(s));
  }
  for (int depth : {0, 1, 7, 16, 24, 64, 127, 128, 160}) {
    OrderPreservingHash h(depth);
    for (const std::string& s : inputs) {
      ASSERT_EQ(h(s).bits(), ReferenceOrderPreservingBits(s, depth))
          << "depth " << depth << " input of length " << s.size();
    }
  }
}

TEST(OrderPreservingHashTest, SkewedInputsProduceSkewedKeys) {
  // Strings sharing a long prefix land close together: that is the expected
  // skew that the adaptive trie must absorb (experiment E7).
  OrderPreservingHash h(16);
  Key a = h("EMBL#AccessionNumber");
  Key b = h("EMBL#AccessionDate");
  EXPECT_GE(a.CommonPrefixLength(b), 12);
}

}  // namespace
}  // namespace gridvine
