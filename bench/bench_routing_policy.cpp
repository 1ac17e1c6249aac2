// Ablation — routing-constant selection policy (DESIGN.md §5):
//
//   paper §2.3: "When two constant terms appear in the triple pattern, the
//   most specific one should be used."
//
// Queries of the form (subject, predicate, ?o) can be routed by either
// constant. Routing by predicate concentrates every query about a relation
// on the handful of peers owning the predicate keys; routing by subject
// spreads the load across the subject key space. This bench quantifies the
// difference: destination-load Gini, hop counts and latency for both
// policies on the same 2000-query workload.
//
//   $ ./bench/bench_routing_policy

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench_json.h"
#include "common/hash.h"
#include "gridvine/gridvine_network.h"

using namespace gridvine;

namespace {

struct PolicyResult {
  double destination_gini = 0;
  double max_share = 0;  // busiest destination's share of all answers
  double mean_latency = 0;
};

double Gini(std::vector<uint64_t> loads) {
  std::sort(loads.begin(), loads.end());
  double total = 0;
  for (uint64_t l : loads) total += double(l);
  if (total == 0) return 0;
  double weighted = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    weighted += double(i + 1) * double(loads[i]);
  }
  double n = double(loads.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

PolicyResult RunPolicy(TriplePos position, uint64_t seed) {
  GridVineNetwork::Options options;
  options.num_peers = 128;
  options.key_depth = 24;
  options.seed = seed;
  options.latency = GridVineNetwork::LatencyKind::kConstant;
  options.latency_param = 0.02;
  GridVineNetwork net(options);

  // Synthetic corpus with lexically DIVERSE subject URIs (as when entities
  // come from many independent databases): the policy variable is isolated
  // from the prefix-clustering effect, which E7 measures separately.
  // 20 relations ("S<j>#attr"), 400 entities, one triple per (entity, attr
  // sample).
  const int kSchemas = 20;
  const int kEntities = 400;
  std::vector<Triple> triples;
  for (int e = 0; e < kEntities; ++e) {
    std::ostringstream subject;
    subject << std::hex << Fnv1a64(std::to_string(e) + "-entity");
    for (int s = 0; s < kSchemas; ++s) {
      if ((e + s) % 4 != 0) continue;  // sparse description
      triples.emplace_back(
          Term::Uri(subject.str()),
          Term::Uri(std::string("S").append(std::to_string(s)) + "#attr"),
          Term::Literal("value " + std::to_string((e * 7 + s) % 50)));
    }
  }
  for (size_t i = 0; i < triples.size(); ++i) {
    if (!net.InsertTriple(i % net.size(), triples[i]).ok()) return {};
  }

  // Queries (subject, predicate, ?o): both positions are exact constants.
  Rng rng(99);
  std::vector<uint64_t> answered_before(net.size());
  for (size_t i = 0; i < net.size(); ++i) {
    answered_before[i] = net.peer(i)->counters().queries_answered;
  }
  double latency_sum = 0;
  const int kQueries = 2000;
  for (int q = 0; q < kQueries; ++q) {
    const Triple& t = triples[size_t(
        rng.UniformInt(0, int64_t(triples.size()) - 1))];
    TriplePatternQuery query(
        "o", TriplePattern(t.subject(), t.predicate(), Term::Var("o")));
    GridVinePeer::QueryOptions qopts;
    qopts.routing_position = position;
    auto res = net.SearchFor(size_t(rng.UniformInt(0, int64_t(net.size()) - 1)),
                             query, qopts);
    latency_sum += res.latency;
  }

  PolicyResult out;
  std::vector<uint64_t> loads;
  uint64_t total = 0, max_load = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    uint64_t load =
        net.peer(i)->counters().queries_answered - answered_before[i];
    loads.push_back(load);
    total += load;
    max_load = std::max(max_load, load);
  }
  out.destination_gini = Gini(loads);
  out.max_share = total ? double(max_load) / double(total) : 0;
  out.mean_latency = latency_sum / kQueries;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_routing_policy");
  std::printf("Ablation: query routing-constant policy "
              "(2000 (s,p,?o) queries, 128 peers)\n\n");
  std::printf("  %-22s %12s %12s %12s\n", "policy", "dest gini",
              "max share", "mean lat");
  struct Row {
    const char* name;
    TriplePos pos;
  };
  for (const Row& row : {Row{"subject (specific)", TriplePos::kSubject},
                         Row{"predicate (generic)", TriplePos::kPredicate}}) {
    PolicyResult r = RunPolicy(row.pos, 11);
    std::printf("  %-22s %12.3f %11.1f%% %10.3fs\n", row.name,
                r.destination_gini, r.max_share * 100, r.mean_latency);
    json.Add(row.pos == TriplePos::kSubject ? "subject" : "predicate",
             {{"destination_gini", r.destination_gini},
              {"max_share", r.max_share},
              {"mean_latency_s", r.mean_latency}});
  }
  json.Finish();
  std::printf("\n  expectation: predicate routing funnels all queries about "
              "a relation to the few peers owning\n  predicate keys (high "
              "gini, high max share); subject routing spreads the same "
              "workload.\n  This is why the paper routes by the most "
              "specific constant.\n");
  return 0;
}
