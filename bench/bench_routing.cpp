// Experiment E2 — P-Grid routing cost (paper Section 2.1):
//
//   "Retrieve(key) is intuitively efficient, i.e., O(log(|Π|)), measured in
//    terms of the number of messages required for resolving a search
//    request, for both balanced and unbalanced trees."
//
// Sweeps the network size from 2^4 to 2^12 peers and measures lookup hop
// counts on (a) a balanced trie with uniform keys and (b) an unbalanced
// (storage-adaptive) trie with heavily skewed keys. Both must scale
// logarithmically.
//
// A second, scale-focused sweep runs 100k and 1M peers on the content-keyed
// engine and records per-peer memory and event throughput
// (bytes_per_peer / events_per_sec in the JSON rows) — the numbers the
// compact-state work is accountable to.
//
//   $ ./bench/bench_routing

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/hash.h"
#include "pgrid/pgrid_builder.h"
#include "pgrid/pgrid_peer.h"
#include "sim/sharded.h"

using namespace gridvine;

namespace {

struct Overlay {
  Overlay(size_t n, int key_depth, uint64_t seed)
      : net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(seed)) {
    PGridPeer::Options opts;
    opts.key_depth = key_depth;
    opts.retry.base_timeout = 60.0;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(seed * 131 + i)[0], opts));
      peers.push_back(owned.back().get());
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
};

struct HopStats {
  double mean = 0;
  int max = 0;
  double p99 = 0;
};

/// First peer (lowest id) whose trie path prefixes `k`, found by predecessor
/// search over the path-sorted index instead of a linear scan per key: the
/// trie paths partition the key space, so the covering prefix is the largest
/// path <= k in lexicographic bit order. The old O(keys x peers) scan made
/// key placement the dominant cost well before the 1M-peer sweep.
PGridPeer* ResponsiblePeer(
    const std::vector<std::pair<std::string, PGridPeer*>>& by_path,
    const Key& k) {
  auto it = std::upper_bound(
      by_path.begin(), by_path.end(), k.bits(),
      [](const std::string& v, const auto& e) { return v < e.first; });
  if (it == by_path.begin()) return nullptr;
  --it;
  // Back up to the first replica with these path bits (lowest id).
  while (it != by_path.begin() && std::prev(it)->first == it->first) --it;
  return it->second->path().IsPrefixOf(k) ? it->second : nullptr;
}

/// Inserts `keys` directly at responsible peers, then issues one Retrieve per
/// sampled key from a random peer and collects hop counts.
HopStats MeasureHops(Overlay* o, const std::vector<Key>& keys, Rng* rng,
                     size_t lookups) {
  std::vector<std::pair<std::string, PGridPeer*>> by_path;
  by_path.reserve(o->peers.size());
  for (auto* p : o->peers) by_path.emplace_back(p->path().bits(), p);
  std::stable_sort(by_path.begin(), by_path.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const Key& k : keys) {
    if (PGridPeer* p = ResponsiblePeer(by_path, k)) p->InsertLocal(k, "v");
  }
  std::vector<int> hops;
  for (size_t i = 0; i < lookups; ++i) {
    const Key& k = keys[i % keys.size()];
    PGridPeer* issuer = o->peers[size_t(
        rng->UniformInt(0, int64_t(o->peers.size()) - 1))];
    bool done = false;
    issuer->Retrieve(k, [&](Result<PGridPeer::LookupResult> r) {
      if (r.ok()) hops.push_back(r->hops);
      done = true;
    });
    o->sim.RunUntilFlag(&done);
  }
  HopStats stats;
  if (hops.empty()) return stats;
  std::sort(hops.begin(), hops.end());
  long total = 0;
  for (int h : hops) total += h;
  stats.mean = double(total) / double(hops.size());
  stats.max = hops.back();
  stats.p99 = hops[size_t(0.99 * double(hops.size() - 1))];
  return stats;
}

HopStats SummarizeHops(const std::vector<int>& raw) {
  std::vector<int> hops;
  for (int h : raw) {
    if (h >= 0) hops.push_back(h);
  }
  HopStats stats;
  if (hops.empty()) return stats;
  std::sort(hops.begin(), hops.end());
  long total = 0;
  for (int h : hops) total += h;
  stats.mean = double(total) / double(hops.size());
  stats.max = hops.back();
  stats.p99 = hops[size_t(0.99 * double(hops.size() - 1))];
  return stats;
}

struct ScaleResult {
  HopStats hops;
  size_t events = 0;
  double build_s = 0;
  double run_s = 0;
  double bytes_per_peer = 0;
  double events_per_sec = 0;
};

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One scale point on the keyed engine. The balanced trie is materialized
/// analytically — paths exactly as PGridBuilder::BuildBalanced assigns them
/// (peer i gets FromUint(i % leaves, depth)), but refs sampled by index math
/// per level instead of WireRouting's per-peer prefix scans, which are
/// O(n^2) at level 0 and already intractable at 100k peers.
ScaleResult RunScalePoint(size_t n, size_t lookups, uint64_t seed,
                          int key_depth) {
  auto t0 = std::chrono::steady_clock::now();

  int depth = 0;
  while ((size_t(1) << (depth + 1)) <= n) ++depth;
  const uint64_t leaves = uint64_t(1) << depth;

  ShardedNetwork::Options so;
  so.seed = seed;
  so.latency = std::make_unique<ConstantLatency>(0.01);
  ShardedNetwork engine(std::move(so));

  PGridPeer::Options opts;
  opts.key_depth = key_depth;
  opts.max_refs_per_level = 2;
  opts.retry.base_timeout = 60.0;
  std::vector<std::unique_ptr<PGridPeer>> peers;
  peers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    peers.push_back(std::make_unique<PGridPeer>(
        engine.sim(), &engine,
        Mt64Head<1>(seed * 131 + i)[0], opts));
    peers.back()->SetPath(Key::FromUint(i % leaves, depth));
  }

  // Wire routing: for each (peer, level), sample refs uniformly from the
  // complementary subtree. A leaf value u lies in peer i's complementary
  // subtree at level L iff u's top L+1 bits equal i's with bit L flipped;
  // peers holding u are exactly {u, u + leaves, ...} < n.
  Rng wire(seed + 99);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = uint64_t(i) % leaves;
    for (int level = 0; level < depth; ++level) {
      const int suffix_bits = depth - 1 - level;
      const uint64_t base = (v >> suffix_bits) ^ 1u;
      int added = 0;
      for (int attempt = 0; attempt < 6 && added < opts.max_refs_per_level;
           ++attempt) {
        uint64_t suffix =
            suffix_bits == 0
                ? 0
                : uint64_t(wire.UniformInt(0, (int64_t(1) << suffix_bits) - 1));
        const uint64_t u = (base << suffix_bits) | suffix;
        const uint64_t copies = (uint64_t(n) - 1 - u) / leaves + 1;
        const uint64_t j =
            u + leaves * uint64_t(wire.UniformInt(0, int64_t(copies) - 1));
        if (peers[i]->routing()->AddRef(level, NodeId(j))) ++added;
      }
    }
    for (uint64_t j = v; j < n; j += leaves) {
      if (j != i) peers[i]->routing()->AddReplica(NodeId(j));
    }
  }

  // Keys land at their lowest-id responsible peer: leaf value = the key's
  // first `depth` bits, responsible id = that value itself (< leaves <= n).
  const size_t kKeys = 500;
  std::vector<Key> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back(UniformHash("key" + std::to_string(i), key_depth));
  }
  for (const Key& k : keys) {
    uint64_t u = 0;
    for (int b = 0; b < depth; ++b) u = (u << 1) | uint64_t(k.bit(b));
    peers[u]->InsertLocal(k, "v");
  }

  auto t1 = std::chrono::steady_clock::now();

  // All lookups scheduled up front (staggered, so many are in flight at
  // once), then one RunUntilIdle — the measured phase.
  Rng lookup_rng(seed + 7);
  std::vector<int> hop_slots(lookups, -1);
  for (size_t i = 0; i < lookups; ++i) {
    const Key& k = keys[i % keys.size()];
    NodeId issuer = NodeId(lookup_rng.UniformInt(0, int64_t(n) - 1));
    engine.ScheduleForNode(issuer, 0.01 + 0.0005 * double(i), [&, i, issuer, k] {
      peers[issuer]->Retrieve(k, [&hop_slots, i](Result<PGridPeer::LookupResult> r) {
        hop_slots[i] = r.ok() ? r->hops : -2;
      });
    });
  }
  engine.RunUntilIdle();
  auto t2 = std::chrono::steady_clock::now();

  ScaleResult res;
  res.hops = SummarizeHops(hop_slots);
  res.events = engine.events_executed();
  res.build_s = Seconds(t0, t1);
  res.run_s = Seconds(t1, t2);
  size_t peer_bytes = 0;
  for (const auto& p : peers) peer_bytes += p->MemoryFootprint();
  res.bytes_per_peer =
      double(peer_bytes + engine.MemoryFootprint()) / double(n);
  res.events_per_sec =
      res.run_s > 0 ? double(res.events) / res.run_s : 0;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_routing");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
  const int kKeyDepth = 20;
  const size_t kLookups = quick ? 200 : 2000;
  std::printf("E2: routing hops vs. network size (O(log N) expected)\n\n");
  std::printf("  %-7s %7s | %-25s | %-25s\n", "", "", "balanced trie",
              "adaptive trie, skewed keys");
  std::printf("  %-7s %7s | %7s %7s %7s | %7s %7s %7s\n", "peers", "log2N",
              "mean", "p99", "max", "mean", "p99", "max");

  // Power-of-two sweep, then a 10000-peer configuration — the scale the
  // event-engine overhaul targets (gossip and reformulation fan-out stay
  // interesting only if plain routing is cheap there).
  std::vector<size_t> sizes;
  for (int exp = 4; exp <= (quick ? 6 : 12); ++exp) {
    sizes.push_back(size_t(1) << exp);
  }
  if (!quick) sizes.push_back(10000);

  int seed_salt = 0;
  for (size_t n : sizes) {
    ++seed_salt;

    // (a) Balanced trie, uniform keys.
    Overlay balanced(n, kKeyDepth, 1);
    Rng rng_b(17);
    PGridBuilder::BuildBalanced(balanced.peers, &rng_b);
    std::vector<Key> uniform_keys;
    for (int i = 0; i < 500; ++i) {
      uniform_keys.push_back(UniformHash("key" + std::to_string(i), kKeyDepth));
    }
    Rng lookup_rng(seed_salt);
    HopStats hb = MeasureHops(&balanced, uniform_keys, &lookup_rng, kLookups);

    // (b) Adaptive trie over skewed keys (order-preserving hash of numeric
    // strings concentrates mass in the digit band).
    Overlay adaptive(n, kKeyDepth, 2);
    OrderPreservingHash oph(kKeyDepth);
    std::vector<Key> skewed_keys;
    for (int i = 0; i < 2000; ++i) {
      skewed_keys.push_back(oph(std::to_string(i)));
    }
    Rng rng_a(18);
    PGridBuilder::BuildAdaptive(adaptive.peers, skewed_keys, &rng_a);
    Rng lookup_rng2(seed_salt + 100);
    HopStats ha = MeasureHops(&adaptive, skewed_keys, &lookup_rng2, kLookups);

    std::printf("  %-7zu %7.1f | %7.2f %7.1f %7d | %7.2f %7.1f %7d\n", n,
                std::log2(double(n)), hb.mean, hb.p99, hb.max, ha.mean,
                ha.p99, ha.max);
    std::string row = "peers_" + std::to_string(n);
    json.Add(row + "/balanced", {{"peers", double(n)},
                                 {"mean_hops", hb.mean},
                                 {"p99_hops", hb.p99},
                                 {"max_hops", double(hb.max)}});
    json.Add(row + "/adaptive", {{"peers", double(n)},
                                 {"mean_hops", ha.mean},
                                 {"p99_hops", ha.p99},
                                 {"max_hops", double(ha.max)}});
  }
  std::printf("\n  (hops counted on the request path; 0 = issuer was "
              "responsible)\n");

  // ---- Scale sweep: 100k / 1M peers on the keyed engine -------------------
  //
  // Balanced trie only (the adaptive builder's recursive split also works at
  // this scale, but hop behaviour is the same O(log N) story). Quick mode
  // runs the 100k point as a CI smoke; the full run adds the 1M point.
  struct ScalePoint {
    size_t n;
    size_t lookups;
  };
  std::vector<ScalePoint> points;
  if (quick) {
    points.push_back({100000, 200});
  } else {
    points.push_back({100000, 2000});
    points.push_back({1000000, 1000});
  }

  std::printf("\nE2b: scale sweep on the keyed engine\n\n");
  std::printf("  %-9s | %7s %7s %7s | %11s %8s %12s | %8s %8s\n", "peers",
              "mean", "p99", "max", "bytes/peer", "events", "events/sec",
              "build_s", "run_s");
  for (const ScalePoint& pt : points) {
    ScaleResult r = RunScalePoint(pt.n, pt.lookups, /*seed=*/5, kKeyDepth);
    std::printf("  %-9zu | %7.3f %7.1f %7d | %11.0f %8zu %12.0f | %8.1f %8.3f\n",
                pt.n, r.hops.mean, r.hops.p99, r.hops.max, r.bytes_per_peer,
                r.events, r.events_per_sec, r.build_s, r.run_s);
    json.Add("scale_" + std::to_string(pt.n),
             {{"peers", double(pt.n)},
              {"bytes_per_peer", r.bytes_per_peer},
              {"events_per_sec", r.events_per_sec},
              {"events", double(r.events)},
              {"mean_hops", r.hops.mean},
              {"p99_hops", r.hops.p99},
              {"max_hops", double(r.hops.max)},
              {"build_s", r.build_s},
              {"run_s", r.run_s}});
  }
  json.Finish();
  return 0;
}
