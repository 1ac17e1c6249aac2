// Experiment E7 — index load balancing (paper Sections 1-2):
//
//   the physical layer is "liable for index load-balancing"; GridVine's
//   order-preserving hash skews the key distribution, and P-Grid absorbs the
//   skew by growing an *unbalanced* trie adapted to the data.
//
// We place the 50-schema bioinformatic corpus (each triple indexed 3x) under
// three configurations and report the per-peer load distribution:
//
//   A. uniform hash + balanced trie       (classic DHT; baseline)
//   B. order-preserving hash + balanced   (naive: shows the skew problem)
//   C. order-preserving hash + adaptive   (GridVine: skew absorbed)
//
//   $ ./bench/bench_load_balance

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "common/hash.h"
#include "pgrid/load_stats.h"
#include "pgrid/pgrid_builder.h"
#include "workload/bio_workload.h"

using namespace gridvine;

namespace {

constexpr int kKeyDepth = 64;  // deep enough that clustered URIs separate

struct Overlay {
  explicit Overlay(size_t n)
      : net(&sim, std::make_unique<ConstantLatency>(0.01), Rng(1)) {
    PGridPeer::Options opts;
    opts.key_depth = kKeyDepth;
    for (size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<PGridPeer>(
          &sim, &net, Mt64Head<1>(31 + i)[0], opts));
      peers.push_back(owned.back().get());
    }
  }
  Simulator sim;
  Network net;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
};

/// Places each key at its responsible peer (pure placement: routing does not
/// change WHERE data lands, so the load measurement needs no messages).
/// Every entry gets a distinct value so none collapse under the idempotent
/// insert — we are counting index entries, not distinct (key, value) pairs.
void Place(Overlay* o, const std::vector<Key>& keys) {
  size_t seq = 0;
  for (const Key& k : keys) {
    for (auto* p : o->peers) {
      if (p->path().IsPrefixOf(k)) {
        p->InsertLocal(k, std::string("t").append(std::to_string(seq++)));
        break;
      }
    }
  }
}

void Report(const char* label, const LoadStats& s) {
  std::printf("  %-42s %8zu %8.1f %9.2f %7.3f\n", label, s.total, s.mean,
              s.max_over_mean, s.gini);
}

/// Minimal mediation-layer payload for the request-serving experiment: the
/// delivery itself is the load unit, no handler needed.
struct BenchPayload : MessageBody {
  MsgType TypeTag() const override {
    static const MsgType t = MsgType::Intern("bench.payload");
    return t;
  }
  size_t SizeBytes() const override { return 8; }
};

/// Request-serving (replica read) imbalance: Zipf-hot key regions are read
/// through the overlay with blind random replica selection. The peer count
/// is deliberately NOT a power of two, so BuildBalanced round-robins peers
/// onto 2^d paths and most regions carry two replicas.
LoadStats RunRequestLoad() {
  constexpr size_t kReqPeers = 48;  // d = 5: 32 regions, 16 doubly replicated
  constexpr size_t kRequests = 20000;
  Overlay o(kReqPeers);
  Rng rng(11);
  PGridBuilder::BuildBalanced(o.peers, &rng, /*refs_per_level=*/4);
  // Zipf(1.1) over the 32 regions: region r is addressed by the path of the
  // r-th distinct peer, so hot regions concentrate on few replica sets.
  std::vector<double> cdf;
  double mass = 0;
  for (size_t r = 0; r < 32; ++r) {
    mass += 1.0 / std::pow(double(r + 1), 1.1);
    cdf.push_back(mass);
  }
  // One gateway issues everything — the mediation-layer shape (an issuing
  // peer fanning a query's scans out).
  Rng req_rng(23);
  constexpr size_t kGateway = 47;
  for (size_t i = 0; i < kRequests; ++i) {
    double u = req_rng.UniformDouble(0.0, mass);
    size_t region = 0;
    while (region + 1 < cdf.size() && cdf[region] < u) ++region;
    const Key& key = o.peers[region]->path();
    o.peers[kGateway]->Route(key, std::make_shared<BenchPayload>());
    if (i % 256 == 0) o.sim.Run();  // keep the in-flight queue bounded
  }
  o.sim.Run();
  return ComputeRequestLoadStats(o.peers);
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_load_balance");
  const size_t kPeers = 128;

  BioWorkload::Options wl;
  wl.num_schemas = 50;
  wl.num_entities = 500;
  wl.entities_per_schema = 42;
  wl.seed = 7;
  BioWorkload workload(wl);

  // The three index keys of every triple, under both hash functions.
  OrderPreservingHash oph(kKeyDepth);
  std::vector<Key> op_keys, uni_keys;
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    for (const auto& t : workload.TriplesFor(s)) {
      for (const auto& term :
           {t.subject().value(), t.predicate().value(), t.object().value()}) {
        op_keys.push_back(oph(term));
        uni_keys.push_back(UniformHash(term, kKeyDepth));
      }
    }
  }

  std::printf("E7: per-peer index load, %zu peers, %zu index entries\n\n",
              kPeers, op_keys.size());
  std::printf("  %-42s %8s %8s %9s %7s\n", "configuration", "total", "mean",
              "max/mean", "gini");

  auto record = [&json](const char* row, const LoadStats& s) {
    json.Add(row, {{"total", double(s.total)},
                   {"mean", s.mean},
                   {"max_over_mean", s.max_over_mean},
                   {"gini", s.gini}});
  };
  {
    Overlay o(kPeers);
    Rng rng(11);
    PGridBuilder::BuildBalanced(o.peers, &rng);
    Place(&o, uni_keys);
    auto s = ComputeLoadStats(o.peers);
    Report("A uniform hash + balanced trie", s);
    record("uniform_balanced", s);
  }
  {
    Overlay o(kPeers);
    Rng rng(11);
    PGridBuilder::BuildBalanced(o.peers, &rng);
    Place(&o, op_keys);
    auto s = ComputeLoadStats(o.peers);
    Report("B order-preserving hash + balanced trie", s);
    record("order_preserving_balanced", s);
  }
  {
    Overlay o(kPeers);
    Rng rng(11);
    PGridBuilder::BuildAdaptive(o.peers, op_keys, &rng);
    Place(&o, op_keys);
    auto s = ComputeLoadStats(o.peers);
    Report("C order-preserving hash + adaptive trie", s);
    record("order_preserving_adaptive", s);
  }

  std::printf("\n  expectation: B is badly skewed (high gini); C restores "
              "balance close to A while keeping\n  the range locality that "
              "order preservation buys.\n");

  // D. Request-serving load under Zipf-hot reads with blind random replica
  // selection (the conjunctive executor's RemoteScan path).
  std::printf("\nrequest-serving load, Zipf(1.1) reads, 48 peers / 32 "
              "regions\n\n");
  std::printf("  %-42s %8s %8s %9s %7s\n", "configuration", "total", "mean",
              "max/mean", "gini");
  auto blind = RunRequestLoad();
  Report("D1 blind random replica selection", blind);
  record("request_blind", blind);
  std::printf("\n  expectation: the Zipf skew across regions dominates the "
              "spread.\n");
  json.Finish();
  return 0;
}
