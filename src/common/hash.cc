#include "common/hash.h"

#include <algorithm>
#include <array>

namespace gridvine {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

Key UniformHash(std::string_view data, int depth) {
  // Chain FNV blocks when more than 64 bits are requested.
  std::string bits;
  bits.reserve(static_cast<size_t>(depth));
  uint64_t h = Mix64(Fnv1a64(data));
  int produced = 0;
  int round = 0;
  while (produced < depth) {
    int take = depth - produced < 64 ? depth - produced : 64;
    // Take the MOST significant bits so that a deeper hash of the same data
    // extends the shallower one (prefix property used by the overlay).
    Key part = Key::FromUint(take == 64 ? h : (h >> (64 - take)), take);
    bits += part.bits();
    produced += take;
    ++round;
    h = Mix64(Fnv1a64(std::string(data) + "#" + std::to_string(round)));
  }
  return Key::FromBits(bits).value();
}

namespace {

// Normalizes a character into the ordered alphabet used for the fraction
// digits: terminator / below-'0' characters (0), '0'-'9' (1..10), the
// punctuation band between '9' and 'a' (11), 'a'-'z' (12..37), above (38).
// The mapping is monotone in (case-folded) ASCII, which is what makes the
// hash order-preserving; characters within one band collide by design.
// Case folding is ASCII-only ('A'-'Z'), as std::tolower in the "C" locale.
constexpr int kRadix = 39;

constexpr int CharDigit(unsigned char c) {
  if (c >= 'A' && c <= 'Z') c = static_cast<unsigned char>(c - 'A' + 'a');
  if (c < '0') return 0;
  if (c <= '9') return 1 + (c - '0');
  if (c < 'a') return 11;  // punctuation between digits and letters
  if (c <= 'z') return 12 + (c - 'a');
  return kRadix - 1;
}

constexpr std::array<uint8_t, 256> kDigitOf = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 0; c < 256; ++c) {
    table[size_t(c)] =
        static_cast<uint8_t>(CharDigit(static_cast<unsigned char>(c)));
  }
  return table;
}();

}  // namespace

Key OrderPreservingHash::SubtreeFor(std::string_view value_prefix) const {
  // Low bound: the prefix itself (implicitly padded with terminators, the
  // minimal digit). High bound: padded with '~', which maps to the maximal
  // digit bucket.
  Key low = (*this)(value_prefix);
  std::string high(value_prefix);
  high.append(24, '~');  // kMaxDigits worth of maximal padding
  Key high_key = (*this)(high);
  return low.Prefix(low.CommonPrefixLength(high_key));
}

Key OrderPreservingHash::operator()(std::string_view data) const {
  // Interpret the first kMaxDigits characters as the fraction N / D with
  // N = sum_i digit_i * radix^(kMaxDigits-1-i) and D = radix^kMaxDigits, and
  // emit `depth_` bits of its binary expansion. The arithmetic is exact
  // (D = 39^24 < 2^127, so 2N < 2D fits 128 bits): no double rounding, so
  // order survives long shared prefixes.
  constexpr size_t kMaxDigits = 24;
  constexpr size_t kHalf = kMaxDigits / 2;  // 39^12 < 2^64
  using u128 = unsigned __int128;
  constexpr uint64_t kHalfPower = [] {
    uint64_t p = 1;
    for (size_t i = 0; i < kHalf; ++i) p *= kRadix;
    return p;
  }();
  constexpr u128 kDenominator = u128(kHalfPower) * kHalfPower;
  // Each half of the digit window accumulates in 64 bits; the two chains are
  // independent, and only their combination needs 128-bit arithmetic.
  auto digit = [&data](size_t i) -> uint64_t {
    return i < data.size() ? kDigitOf[static_cast<unsigned char>(data[i])] : 0;
  };
  uint64_t high = 0, low = 0;
  for (size_t i = 0; i < kHalf; ++i) {
    high = high * kRadix + digit(i);
    low = low * kRadix + digit(kHalf + i);
  }
  u128 n = u128(high) * kHalfPower + low;

  std::string bits(static_cast<size_t>(std::max(depth_, 0)), '0');
  for (char& bit : bits) {
    // Doubling the fraction: the integer part carried out is the next bit.
    // Branch-free, since the bits of a hash are close to coin flips.
    n <<= 1;
    const bool carry = n >= kDenominator;
    n -= kDenominator & -u128(carry);
    bit = static_cast<char>('0' + carry);
  }
  return Key::FromBits(bits).value();
}

}  // namespace gridvine
