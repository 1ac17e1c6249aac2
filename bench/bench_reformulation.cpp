// Experiment E6 — iterative vs. recursive query reformulation (paper
// Section 4):
//
//   "In reformulating queries, we support two approaches: iterative, where a
//    peer iteratively looks for paths of mappings and reformulates the query
//    by itself, and recursive, where the successive reformulations are
//    delegated to intermediate peers."
//
// A chain of schemas S0 -> S1 -> ... -> Sk (mapped pairwise) holds matching
// data at every hop. We sweep the chain length and report, per strategy:
// results retrieved, network messages, and time until the LAST result
// arrived. Iterative pays issuer-side mapping fetches per hop; recursive
// pipelines reformulation at the destinations.
//
//   $ ./bench/bench_reformulation

#include <cstdio>
#include <string>

#include "bench_json.h"
#include "gridvine/gridvine_network.h"

using namespace gridvine;

namespace {

struct ModeStats {
  size_t results = 0;
  size_t schemas = 0;
  uint64_t messages = 0;
  double last_result_at = 0;
};

ModeStats RunMode(GridVineNetwork& net, ReformulationMode mode, int chain) {
  TriplePatternQuery query(
      "x", TriplePattern(Term::Var("x"), Term::Uri("S0#organism"),
                         Term::Literal("%match%")));
  GridVinePeer::QueryOptions opts;
  opts.reformulate = true;
  opts.mode = mode;
  opts.max_hops = chain;
  opts.timeout = 30.0;
  uint64_t before = net.network()->stats().messages_sent;
  auto res = net.SearchFor(1, query, opts);
  ModeStats out;
  out.results = res.items.size();
  out.schemas = res.schemas_answered;
  out.messages = net.network()->stats().messages_sent - before;
  for (const auto& item : res.items) {
    if (item.arrival > out.last_result_at) out.last_result_at = item.arrival;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_reformulation");
  std::printf("E6: iterative vs. recursive reformulation along mapping "
              "chains\n\n");
  std::printf("  %-6s | %-28s | %-28s\n", "", "iterative", "recursive");
  std::printf("  %-6s | %8s %6s %12s | %8s %6s %12s\n", "chain", "results",
              "msgs", "last-result", "results", "msgs", "last-result");

  for (int chain : {1, 2, 3, 4, 6, 8}) {
    GridVineNetwork::Options options;
    options.num_peers = 64;
    options.key_depth = 14;
    options.seed = uint64_t(1000 + chain);
    options.latency = GridVineNetwork::LatencyKind::kConstant;
    options.latency_param = 0.025;
    options.peer.query_timeout = 30.0;
    GridVineNetwork net(options);

    // Chain of schemas, one entity each, pairwise mapped.
    for (int s = 0; s <= chain; ++s) {
      std::string name = std::string("S").append(std::to_string(s));
      if (!net.InsertSchema(size_t(s), Schema(name, "bio", {"organism"}))
               .ok()) {
        return 1;
      }
      Triple t(Term::Uri("entity-" + name), Term::Uri(name + "#organism"),
               Term::Literal("a match value"));
      if (!net.InsertTriple(size_t(s), t).ok()) return 1;
    }
    for (int s = 0; s < chain; ++s) {
      std::string a = std::string("S").append(std::to_string(s));
      std::string b = std::string("S").append(std::to_string(s + 1));
      SchemaMapping m(a + "-" + b, a, b);
      m.AddCorrespondence(a + "#organism", b + "#organism").ok();
      if (!net.InsertMapping(size_t(s), m).ok()) return 1;
    }

    ModeStats it = RunMode(net, ReformulationMode::kIterative, chain);
    ModeStats rec = RunMode(net, ReformulationMode::kRecursive, chain);
    std::printf("  %-6d | %8zu %6llu %10.2fs | %8zu %6llu %10.2fs\n", chain,
                it.results, (unsigned long long)it.messages,
                it.last_result_at, rec.results,
                (unsigned long long)rec.messages, rec.last_result_at);
    std::string row = "chain_" + std::to_string(chain);
    json.Add(row + "/iterative", {{"results", double(it.results)},
                                  {"messages", double(it.messages)},
                                  {"last_result_s", it.last_result_at}});
    json.Add(row + "/recursive", {{"results", double(rec.results)},
                                  {"messages", double(rec.messages)},
                                  {"last_result_s", rec.last_result_at}});
  }
  std::printf("\n  expectation: both retrieve chain+1 results; recursive "
              "reaches the last result much faster on long\n  chains "
              "(reformulation is pipelined at the destinations) and uses "
              "fewer messages (each hop's\n  mapping fetch runs at the peer "
              "already responsible for the schema's key space, not at the\n"
              "  issuer).\n");
  json.Finish();
  return 0;
}
