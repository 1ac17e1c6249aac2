// Microbenchmarks of query reformulation over an in-memory mapping graph:
// ExpandQuery (the BFS over mapping paths, re-derived for every query) and
// single-edge Reformulate.
//
// google-benchmark binary; run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include <string>

#include "query/reformulation.h"

namespace gridvine {
namespace {

/// A mapping graph shaped like a community of `n` schemas: a ring of
/// equivalences plus chords, every mapping covering the Organism attribute.
MappingGraph BuildGraph(int n) {
  MappingGraph g;
  auto schema = [](int i) {
    return std::string("S").append(std::to_string(i));
  };
  auto add = [&](int a, int b) {
    SchemaMapping m(schema(a) + ">" + schema(b), schema(a), schema(b));
    m.AddCorrespondence(schema(a) + "#Organism", schema(b) + "#Organism").ok();
    g.AddMapping(m);
  };
  for (int i = 0; i < n; ++i) add(i, (i + 1) % n);
  for (int i = 0; i < n; i += 3) add(i, (i + n / 2) % n);
  return g;
}

TriplePatternQuery OrganismQuery(const std::string& schema) {
  return TriplePatternQuery(
      "x", TriplePattern(Term::Var("x"), Term::Uri(schema + "#Organism"),
                         Term::Literal("%Aspergillus%")));
}

void BM_ExpandQuery(benchmark::State& state) {
  MappingGraph g = BuildGraph(int(state.range(0)));
  auto q = OrganismQuery("S0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpandQuery(q, g, 8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpandQuery)->Arg(8)->Arg(32)->Arg(128);

void BM_Reformulate(benchmark::State& state) {
  SchemaMapping m("ab", "A", "B");
  m.AddCorrespondence("A#Organism", "B#Organism").ok();
  auto q = OrganismQuery("A");
  for (auto _ : state) {
    benchmark::DoNotOptimize(Reformulate(q, m));
  }
}
BENCHMARK(BM_Reformulate);

}  // namespace
}  // namespace gridvine

BENCHMARK_MAIN();
