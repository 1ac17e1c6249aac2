// Experiment E3 — connectivity indicator vs. giant component (paper
// Section 3.1):
//
//   ci = Σ (jk − k) p_jk ;  ci >= 0  <=>  a giant connected component
//   emerges in the graph of schemas and mappings.
//
// 50 schemas (as in the demo); random directed mappings are added one
// at a time. After each insertion we print the indicator (computed only
// from the degree sequence, as the registry peer would) against the measured
// largest-SCC fraction. The crossover of ci through 0 must coincide with the
// giant component emerging.
//
//   $ ./bench/bench_connectivity

#include <cstdio>
#include <set>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "mapping/mapping_graph.h"
#include "selforg/connectivity.h"

using namespace gridvine;

namespace {

SchemaMapping RandomMapping(int seq, const std::string& a,
                            const std::string& b) {
  // Directed mappings: the generating-function criterion ci = Σ(jk − k)p_jk
  // is derived for directed graphs. (For a purely bidirectional mapping
  // network each schema has j = k, so jk − k = k(k−1) >= 0 and the indicator
  // never goes negative — which is why the live self-organizer additionally
  // treats isolated schemas as under-connectivity.)
  SchemaMapping m(std::string("m").append(std::to_string(seq)), a, b);
  m.AddCorrespondence(a + "#Organism", b + "#Organism").ok();
  return m;
}

void RunTrial(uint64_t seed, int num_schemas, bool print_rows) {
  MappingGraph graph;
  std::vector<std::string> schemas;
  for (int s = 0; s < num_schemas; ++s) {
    schemas.push_back(std::string("S").append(std::to_string(s)));
    graph.AddSchema(schemas.back());
  }

  Rng rng(seed);
  std::set<std::pair<int, int>> used;
  double crossover_mappings = -1;
  double giant_at_crossover = 0;
  if (print_rows) {
    std::printf("  %-9s %9s %9s %12s\n", "mappings", "ci", "SCC-frac",
                "giant(>25%)");
  }
  for (int added = 1; added <= 3 * num_schemas; ++added) {
    int a, b;
    do {
      a = int(rng.UniformInt(0, num_schemas - 1));
      b = int(rng.UniformInt(0, num_schemas - 1));
    } while (a == b || used.count({a, b}));
    used.insert({a, b});
    graph.AddMapping(RandomMapping(added, schemas[size_t(a)],
                                   schemas[size_t(b)]));

    double ci = ConnectivityIndicator(graph.DegreeSequence());
    double scc = graph.LargestSccFraction();
    if (crossover_mappings < 0 && ci >= 0) {
      crossover_mappings = added;
      giant_at_crossover = scc;
    }
    if (print_rows && (added % 10 == 0 || crossover_mappings == added)) {
      std::printf("  %-9d %9.3f %8.0f%% %12s\n", added, ci, scc * 100,
                  scc > 0.25 ? "yes" : "no");
    }
  }
  if (print_rows) {
    std::printf("\n  ci crossed 0 at %d mappings; largest SCC there: %.0f%%\n",
                int(crossover_mappings), giant_at_crossover * 100);
  }
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_connectivity");
  std::printf("E3: connectivity indicator vs. giant-SCC emergence "
              "(50 schemas, random directed mappings)\n\n");
  RunTrial(/*seed=*/1, /*num_schemas=*/50, /*print_rows=*/true);

  // Aggregate check across seeds: at the ci >= 0 crossover the largest SCC
  // must already be substantial (the indicator predicts the transition).
  std::printf("\n  crossover statistics over 20 seeds:\n");
  double scc_sum = 0;
  double mappings_sum = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    MappingGraph graph;
    std::vector<std::string> schemas;
    for (int s = 0; s < 50; ++s) {
      schemas.push_back(std::string("S").append(std::to_string(s)));
      graph.AddSchema(schemas.back());
    }
    Rng rng(seed * 7919);
    std::set<std::pair<int, int>> used;
    for (int added = 1; added <= 150; ++added) {
      int a, b;
      do {
        a = int(rng.UniformInt(0, 49));
        b = int(rng.UniformInt(0, 49));
      } while (a == b || used.count({a, b}));
      used.insert({a, b});
      graph.AddMapping(RandomMapping(added, schemas[size_t(a)],
                                     schemas[size_t(b)]));
      if (ConnectivityIndicator(graph.DegreeSequence()) >= 0) {
        scc_sum += graph.LargestSccFraction();
        mappings_sum += added;
        break;
      }
    }
  }
  std::printf("    mean mappings at ci=0 crossover: %.1f\n",
              mappings_sum / 20);
  std::printf("    mean largest-SCC fraction there: %.0f%%\n",
              scc_sum / 20 * 100);
  json.Add("crossover", {{"mean_mappings_at_ci0", mappings_sum / 20},
                         {"mean_scc_fraction", scc_sum / 20}});
  json.Finish();
  return 0;
}
