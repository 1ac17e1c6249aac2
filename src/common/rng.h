#ifndef GRIDVINE_COMMON_RNG_H_
#define GRIDVINE_COMMON_RNG_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace gridvine {

/// Deterministic random source used throughout the simulator. Every component
/// takes its Rng (or a seed) explicitly so whole-network experiments are
/// reproducible bit-for-bit from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(engine_);
  }

  /// Log-normal sample with the given parameters of the underlying normal.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential sample with the given rate.
  double Exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Zipf-distributed rank in [0, n): P(k) ∝ 1/(k+1)^s. Inverse-CDF over a
  /// lazily built table would be faster; rejection-free linear scan is fine
  /// for the n (tens to thousands) used in workload generation.
  size_t Zipf(size_t n, double s) {
    assert(n > 0);
    double norm = 0;
    for (size_t k = 1; k <= n; ++k) norm += 1.0 / std::pow(double(k), s);
    double u = UniformDouble(0.0, norm);
    double acc = 0;
    for (size_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(double(k), s);
      if (u <= acc) return k - 1;
    }
    return n - 1;
  }

  /// Picks a uniformly random element of a non-empty indexable container
  /// (vector, span, ...). Returns whatever operator[] returns — a reference
  /// for vectors, a value for by-value views.
  template <typename C>
  decltype(auto) PickOne(const C& v) {
    assert(v.size() > 0);
    return v[static_cast<size_t>(UniformInt(0, int64_t(v.size()) - 1))];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    std::shuffle(v->begin(), v->end(), engine_);
  }

  /// Derives an independent child generator; used to give each peer its own
  /// stream so adding a peer does not perturb the others' randomness.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// The first K outputs of `std::mt19937_64(seed)`, computed without building
/// the generator: its 2.5 KB state, 312-step seeding and 312-word refill cost
/// far more than a few draws when a per-peer stream needs only a seed or two.
/// Output k (k < 156) of the first refill twists seeding words k and k + 1
/// and xors word k + 156 — words the refill has not yet rewritten — so the
/// first K outputs depend on seeding words 0 .. K + 155 only.
/// `Mt64Head<1>(s)[0]` is the seed `Rng(s).Fork()` would hand a child.
template <size_t K>
std::array<uint64_t, K> Mt64Head(uint64_t seed) {
  using Mt = std::mt19937_64;
  static_assert(K >= 1 && K <= Mt::state_size - Mt::shift_size,
                "only outputs read before the refill's wrap-around");
  constexpr uint64_t kLowerMask = (uint64_t(1) << Mt::mask_bits) - 1;
  uint64_t words[K + Mt::shift_size] = {seed};
  for (size_t i = 1; i < K + Mt::shift_size; ++i) {
    words[i] = Mt::initialization_multiplier *
                   (words[i - 1] ^ (words[i - 1] >> (Mt::word_size - 2))) +
               i;
  }
  std::array<uint64_t, K> out{};
  for (size_t k = 0; k < K; ++k) {
    const uint64_t y = (words[k] & ~kLowerMask) | (words[k + 1] & kLowerMask);
    uint64_t z = words[k + Mt::shift_size] ^ (y >> 1) ^
                 ((y & 1) != 0 ? Mt::xor_mask : 0);
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    z ^= z >> Mt::tempering_l;
    out[k] = z;
  }
  return out;
}

/// SplitMix64 finalizer: a full-avalanche 64 -> 64 bit mix, usable on its own
/// to derive independent seeds from (seed, index) pairs.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 8-byte deterministic generator (SplitMix64). Statistically far weaker than
/// Rng's mt19937_64 (2.5 KB of state), but with one machine word of state it
/// is what makes *per-node* random streams affordable at 1M simulated peers:
/// the content-keyed engine keeps one SmallRng per node so every node's
/// latency / loss / fault draws come from its own stream and are independent
/// of the global interleaving of sends. Draw-for-draw it does NOT reproduce
/// Rng's sequences; the two engines are separate determinism domains.
class SmallRng {
 public:
  SmallRng() : state_(0) {}
  explicit SmallRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t x = state_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Uniform in [0, 1) with 53 random bits.
  double NextDouble() {
    return double(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box–Muller (two uniforms per call; no state carried
  /// between calls so each sample's draw count is fixed — important for
  /// deterministic replay).
  double Normal() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0) u1 = 5e-324;  // guard log(0)
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  double LogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * Normal());
  }

  double Exponential(double rate) {
    double u = NextDouble();
    if (u <= 0) u = 5e-324;
    return -std::log(u) / rate;
  }

 private:
  uint64_t state_;
};

/// Counter-based per-peer generator: the full Rng-style drawing interface
/// (UniformInt / PickOne / Fork / jitter doubles) over a single SmallRng
/// machine word. This is what overlay peers carry instead of a 2.5 KB
/// mt19937_64 — the dominant share of a bare peer's footprint at the 1M-peer
/// scale point. Peers take its seed directly (see Mt64Head for deriving one
/// from an Rng seed without building the Rng); like SmallRng it is a
/// separate determinism domain from Rng (same-seed runs are self-identical,
/// but not draw-for-draw equal to the mt19937_64 streams).
class CompactRng {
 public:
  CompactRng() : rng_(0) {}
  explicit CompactRng(uint64_t seed) : rng_(seed) {}

  uint64_t Next() { return rng_.Next(); }

  /// Uniform integer in [lo, hi] inclusive. Lemire-style widening multiply
  /// keeps it allocation- and division-free; the (bounded) modulo bias of a
  /// 64-bit draw over overlay-sized ranges is far below anything the
  /// simulator can observe.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    uint64_t span = uint64_t(hi) - uint64_t(lo) + 1;
    if (span == 0) return int64_t(rng_.Next());  // full 64-bit range
    unsigned __int128 wide = (unsigned __int128)rng_.Next() * span;
    return lo + int64_t(uint64_t(wide >> 64));
  }

  double UniformDouble(double lo, double hi) {
    return rng_.UniformDouble(lo, hi);
  }

  bool Bernoulli(double p) { return rng_.Bernoulli(p); }

  double Exponential(double rate) { return rng_.Exponential(rate); }

  double LogNormal(double mu, double sigma) { return rng_.LogNormal(mu, sigma); }

  template <typename C>
  decltype(auto) PickOne(const C& v) {
    assert(v.size() > 0);
    return v[static_cast<size_t>(UniformInt(0, int64_t(v.size()) - 1))];
  }

  CompactRng Fork() { return CompactRng(rng_.Next()); }

 private:
  SmallRng rng_;
};

}  // namespace gridvine

#endif  // GRIDVINE_COMMON_RNG_H_
