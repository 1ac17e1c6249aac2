// The full Section 4 demonstration: 50 distinct bioinformatic schemas shared
// by a network of a few hundred peers, EBI-style protein/nucleotide data,
// manually created mappings, and queries that traverse the mapping network.
// Prints a deployment summary, the index-load balance, and a set of
// reformulated organism queries with their provenance.
//
//   $ ./examples/bioinformatics_demo

#include <cstdio>
#include <vector>

#include "pgrid/load_stats.h"
#include "workload/bio_workload.h"
#include "gridvine/gridvine_network.h"

using namespace gridvine;

int main() {
  // "a network running on several hundreds of peers" — 200 peers here keeps
  // the example brisk; bench/bench_query_latency runs the full 340.
  GridVineNetwork::Options net_options;
  net_options.num_peers = 200;
  // Deep keys: entity URIs share long prefixes ("ebi:P1001..."), and the
  // order-preserving hash only separates them past ~10 characters. Shallow
  // keys would pile every subject-index entry onto one overlay key.
  net_options.key_depth = 64;
  net_options.seed = 2007;
  net_options.latency = GridVineNetwork::LatencyKind::kWan;
  net_options.latency_param = 0.015;
  net_options.peer.query_timeout = 8.0;
  GridVineNetwork net(net_options);

  BioWorkload::Options wl_options;  // 50 schemas by default
  wl_options.num_entities = 300;
  wl_options.entities_per_schema = 30;
  wl_options.seed = 5;
  BioWorkload workload(wl_options);

  std::printf("GridVine bioinformatics demo\n");
  std::printf("  peers:   %zu\n", net.size());
  std::printf("  schemas: %zu\n", workload.schemas().size());
  std::printf("  triples: %zu\n\n", workload.TotalTriples());

  // Adapt the overlay trie to the actual key distribution before inserting:
  // the order-preserving hash is skewed, and P-Grid's unbalanced trie is how
  // the index stays load-balanced (compare bench_load_balance).
  {
    std::vector<Key> sample;
    const auto& h = net.peer(0)->hasher();
    for (size_t s = 0; s < workload.schemas().size(); ++s) {
      for (const auto& t : workload.TriplesFor(s)) {
        sample.push_back(h(t.subject().value()));
        sample.push_back(h(t.predicate().value()));
        sample.push_back(h(t.object().value()));
      }
    }
    net.RebuildOverlayAdaptive(sample);
  }

  // Every schema is owned by a peer that inserts its definition and data.
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    size_t owner = s % net.size();
    Status st = net.InsertSchema(owner, workload.schemas()[s]);
    if (!st.ok()) {
      std::printf("schema insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
    for (const auto& t : workload.TriplesFor(s)) {
      st = net.InsertTriple(owner, t);
      if (!st.ok()) {
        std::printf("triple insert failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }

  // Manual mappings: a bidirectional ring through all 50 schemas, so every
  // schema can reach every other through chains of reformulations.
  size_t n = workload.schemas().size();
  for (size_t s = 0; s < n; ++s) {
    auto m = workload.GroundTruthMapping(s, (s + 1) % n,
                                         "manual-" + std::to_string(s));
    if (!net.InsertMapping(s % net.size(), m).ok()) return 1;
  }
  std::printf("inserted %zu manual mappings (bidirectional ring)\n\n", n);

  // Index load balance across the overlay (the physical layer's job): each
  // peer's DB_p rows plus the records its overlay storage holds.
  std::vector<uint64_t> per_peer;
  for (size_t i = 0; i < net.size(); ++i) {
    per_peer.push_back(net.peer(i)->local_db().size() +
                       net.peer(i)->overlay()->StorageSize());
  }
  LoadStats load = ComputeLoadStatsFrom(per_peer);
  std::printf("index load: %zu entries, mean %.1f/peer, max/mean %.2f, "
              "gini %.3f\n\n",
              load.total, load.mean, load.max_over_mean, load.gini);

  // Queries with increasing reformulation radius: recall grows with the
  // number of mapping hops allowed.
  // Organism queries — the concept every schema realizes, so reformulation
  // can in principle traverse the whole ring.
  Rng rng(31);
  auto gq = workload.MakeQuery(0, &rng, "organism");
  std::printf("query: %s\n", gq.query.ToString().c_str());
  std::printf("globally expected results: %zu\n\n",
              gq.expected_subjects.size());
  for (int hops : {0, 2, 4, 8, 16, 49}) {
    GridVinePeer::QueryOptions opts;
    opts.reformulate = hops > 0;
    opts.mode = ReformulationMode::kIterative;
    opts.max_hops = hops;
    opts.timeout = 30.0;
    auto res = net.SearchFor(0, gq.query, opts);
    std::set<std::string> found;
    for (const auto& item : res.items) found.insert(item.value.value());
    std::printf("  max %2d mapping hops: %3zu results, %2zu schemas, "
                "recall %5.1f%%\n",
                hops, found.size(), res.schemas_answered,
                BioWorkload::Recall(gq, found) * 100);
  }
  return 0;
}
