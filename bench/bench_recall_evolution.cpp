// Experiment E4 — the Section 4 demonstration storyline:
//
//   "In a sparse network of mappings, few results get returned initially
//    (low recall), while more and more results are retrieved as mappings get
//    created automatically to ensure the global interoperability of the
//    system."
//
// A live network shares 10 heterogeneous schemas with no mappings. Each
// self-organization round publishes degrees, reads the connectivity
// indicator, creates mappings while ci < 0 (or schemas are isolated), and
// assesses/deprecates. After each round we measure mean recall over a fixed
// query mix (reformulation enabled). Recall must climb from near-zero toward
// the giant-component regime.
//
// A seed sweep then reruns phase 1 with the matcher's embedding channel off
// and on, to show what the channel buys (one seed alone would not).
//
//   $ ./bench/bench_recall_evolution

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>

#include "bench_json.h"
#include "selforg_scale.h"
#include "selforg/self_organizer.h"
#include "workload/bio_workload.h"

using namespace gridvine;

namespace {

struct RecallMeasurement {
  double mean_recall = 0;
  double mean_results = 0;
};

/// A live network sharing 10 heterogeneous schemas and no mappings, its
/// organizer, and a fixed query mix. `s` offsets every seed; s = 0 is the
/// recorded storyline.
struct Deployment {
  Deployment(uint64_t s, const AttributeMatcher::Options& matcher)
      : net(NetOptions(s)), workload(WorkloadOptions(s)) {
    for (size_t i = 0; i < workload.schemas().size(); ++i) {
      loaded = loaded && net.InsertSchema(i, workload.schemas()[i]).ok() &&
               net.InsertTriples(i, workload.TriplesFor(i)).ok();
    }
    SelfOrganizer::Options org;
    org.domain = workload.options().domain;
    org.matcher = matcher;
    org.creations_per_round = 2;
    org.seed = 5 + s;
    organizer = std::make_unique<SelfOrganizer>(&net, org);
    for (size_t i = 0; i < workload.schemas().size(); ++i) {
      organizer->RegisterSchemaOwner(workload.schemas()[i].name(), i);
    }
    // Fixed query mix: organism queries from every schema (the concept
    // every schema realizes, so full interoperability means recall ~1).
    Rng qrng(77);
    for (size_t i = 0; i < workload.schemas().size(); ++i) {
      queries.push_back(workload.MakeQuery(i, &qrng, "organism"));
    }
  }

  static GridVineNetwork::Options NetOptions(uint64_t s) {
    GridVineNetwork::Options o;
    o.num_peers = 48;
    o.key_depth = 14;
    o.seed = 404 + s;
    o.latency = GridVineNetwork::LatencyKind::kConstant;
    o.latency_param = 0.01;
    o.peer.query_timeout = 6.0;
    return o;
  }

  static BioWorkload::Options WorkloadOptions(uint64_t s) {
    BioWorkload::Options wl;
    wl.num_schemas = 10;
    wl.num_entities = 200;
    wl.entities_per_schema = 50;
    wl.seed = 31 + s;
    return wl;
  }

  GridVineNetwork net;
  BioWorkload workload;
  bool loaded = true;
  std::unique_ptr<SelfOrganizer> organizer;
  std::vector<BioWorkload::GeneratedQuery> queries;
};

RecallMeasurement MeasureRecall(Deployment& d) {
  GridVineNetwork& net = d.net;
  const BioWorkload& workload = d.workload;
  const std::vector<BioWorkload::GeneratedQuery>& queries = d.queries;
  RecallMeasurement out;
  for (size_t i = 0; i < queries.size(); ++i) {
    GridVinePeer::QueryOptions opts;
    opts.reformulate = true;
    opts.mode = ReformulationMode::kIterative;
    opts.max_hops = int(workload.schemas().size());
    opts.timeout = 15.0;
    size_t issuer = i % net.size();
    auto res = net.SearchFor(issuer, queries[i].query, opts);
    std::set<std::string> found;
    for (const auto& item : res.items) found.insert(item.value.value());
    out.mean_recall += BioWorkload::Recall(queries[i], found);
    out.mean_results += double(found.size());
  }
  out.mean_recall /= double(queries.size());
  out.mean_results /= double(queries.size());
  return out;
}

/// Runs self-organization rounds until the mapping graph is strongly
/// connected and recall exceeds 0.8, at most `max_rounds`. `on_round` sees
/// each round's number, report and recall. Returns the rounds run.
template <typename OnRound>
int OrganizeUntilInteroperable(Deployment& d, int max_rounds,
                               OnRound on_round) {
  for (int round = 1; round <= max_rounds; ++round) {
    auto report = d.organizer->RunRound();
    auto m = MeasureRecall(d);
    on_round(round, report, m);
    if (report.scc_fraction_after >= 1.0 && m.mean_recall > 0.8) return round;
  }
  return max_rounds;
}

void PrintRound(int round, const SelfOrganizer::RoundReport& report,
                const RecallMeasurement& m) {
  std::printf("  %-6d %9.3f %6.0f%% %9zu %11zu %8zu %7.0f%%\n", round,
              report.ci_after, report.scc_fraction_after * 100,
              report.mappings_created, report.mappings_deprecated,
              report.active_mappings, m.mean_recall * 100);
}

/// Phase 1 of one sweep arm: final recall, rounds run, and the lowest
/// ground-truth precision among the active mappings.
struct SweepArm {
  double recall = 0;
  int rounds = 0;
  double precision_min = 1.0;
};

SweepArm RunSweepArm(uint64_t s, const AttributeMatcher::Options& matcher) {
  Deployment d(s, matcher);
  SweepArm arm;
  if (!d.loaded) return arm;
  arm.rounds = OrganizeUntilInteroperable(
      d, 10, [&](int, const SelfOrganizer::RoundReport&,
                 const RecallMeasurement& m) { arm.recall = m.mean_recall; });
  const MappingGraph& view = d.organizer->graph_view();
  for (const auto& schema : view.Schemas()) {
    for (const auto& m : view.MappingsFrom(schema)) {
      arm.precision_min =
          std::min(arm.precision_min, d.workload.MappingPrecision(m));
    }
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_recall_evolution");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
  Deployment d(/*s=*/0, AttributeMatcher::Options{});
  if (!d.loaded) return 1;
  GridVineNetwork& net = d.net;
  const BioWorkload& workload = d.workload;
  SelfOrganizer& organizer = *d.organizer;

  std::printf("E4: recall evolution under self-organizing mappings "
              "(paper Section 4)\n");
  std::printf("  peers=%zu schemas=%zu triples=%zu queries/round=%zu\n\n",
              net.size(), workload.schemas().size(), workload.TotalTriples(),
              d.queries.size());
  std::printf("  %-6s %9s %7s %9s %11s %8s %8s\n", "round", "ci", "SCC%",
              "created", "deprecated", "active", "recall");

  auto initial = MeasureRecall(d);
  std::printf("  %-6d %9s %7s %9s %11s %8d %7.0f%%\n", 0, "-", "-", "-", "-",
              0, initial.mean_recall * 100);
  json.Add("round_0", {{"recall", initial.mean_recall}});

  int round = OrganizeUntilInteroperable(d, 10, PrintRound);

  // Phase 2 — the paper's perturbation: "Removing some of the existing
  // mappings fosters the creation of additional mappings". Deprecate half
  // of the active mappings and watch the organizer rebuild interoperability.
  {
    MappingGraph graph = organizer.BuildGraphView();
    size_t removed = 0;
    size_t target = graph.active_mapping_count() / 2;
    for (const auto& schema : graph.Schemas()) {
      for (const auto& m : graph.MappingsFrom(schema)) {
        if (removed >= target) break;
        auto orig = graph.Get(m.id());
        if (!orig.ok() || orig->deprecated()) continue;
        SchemaMapping dep = *orig;
        dep.set_deprecated(true);
        if (net.UpsertMapping(organizer.OwnerOf(dep.source_schema()), dep)
                .ok()) {
          graph.Deprecate(m.id());
          ++removed;
        }
      }
    }
    auto m = MeasureRecall(d);
    std::printf("\n  -- deprecated %zu mappings (perturbation) -- recall "
                "drops to %.0f%%\n\n",
                removed, m.mean_recall * 100);
  }
  round += OrganizeUntilInteroperable(
      d, 8, [round](int r, const SelfOrganizer::RoundReport& report,
                    const RecallMeasurement& m) {
        PrintRound(round + r, report, m);
      });
  {
    auto final_m = MeasureRecall(d);
    json.Add("final", {{"recall", final_m.mean_recall},
                       {"rounds", double(round)}});
  }
  std::printf("\n  expectation: recall rises from its single-schema floor as "
              "ci crosses 0; after the\n  perturbation it dips and recovers "
              "as replacement mappings are created automatically.\n");

  // Phase 3 — schema evolution at scale (agreement maintenance): on a
  // 10k-peer network one schema's attributes all move to different
  // vocabulary variants mid-run; continued rounds must deprecate the
  // dangling mappings, re-derive replacements and recover recall to >= 95%
  // of the pre-change level. Quick mode shrinks the network (CI smoke).
  {
    const size_t peers = quick ? 256 : 10240;
    std::printf("\n  -- schema evolution at scale (%zu peers) --\n", peers);
    auto r = gridvine::bench::RunEvolutionAtScale(peers, /*seed=*/404);
    std::printf("  converged in %d rounds; recall %.0f%% -> %.0f%% (evolution)"
                " -> %.0f%% after %d repair rounds\n",
                r.convergence_rounds, r.recall_pre * 100, r.recall_post * 100,
                r.recall_final * 100, r.recovery_rounds);
    json.Add("evolution_at_scale",
             {{"peers", double(r.peers)},
              {"convergence_rounds", double(r.convergence_rounds)},
              {"recall_pre", r.recall_pre},
              {"recall_post_evolution", r.recall_post},
              {"recall_final", r.recall_final},
              {"recovery_ratio",
               r.recall_pre > 0 ? r.recall_final / r.recall_pre : 0.0},
              {"recovery_rounds", double(r.recovery_rounds)}});
  }

  // Embedding channel sweep: phase 1 per seed s (network 404+s, workload
  // 31+s, organizer 5+s) with the matcher's cosine channel off (the
  // defaults above) and on at weight 0.25, lexical and value 0.375 each.
  {
    const int seeds = quick ? 3 : 20;
    AttributeMatcher::Options on;
    on.embedding_weight = 0.25;
    on.lexical_weight = 0.375;
    on.value_weight = 0.375;
    std::printf("\n  -- embedding channel sweep (%d seeds, phase 1) --\n",
                seeds);
    std::printf("  %-5s %11s %10s %11s %10s\n", "seed", "recall_off",
                "recall_on", "rounds_off", "rounds_on");
    double recall_off = 0, recall_on = 0, rounds_off = 0, rounds_on = 0;
    double precision_min = 1.0;
    int improved = 0, equal = 0, worse = 0;
    for (int s = 0; s < seeds; ++s) {
      SweepArm off_arm = RunSweepArm(uint64_t(s), AttributeMatcher::Options{});
      SweepArm on_arm = RunSweepArm(uint64_t(s), on);
      std::printf("  %-5d %10.0f%% %9.0f%% %11d %10d\n", s,
                  off_arm.recall * 100, on_arm.recall * 100, off_arm.rounds,
                  on_arm.rounds);
      json.Add("embedding_sweep/seed_" + std::to_string(s),
               {{"recall_off", off_arm.recall},
                {"recall_on", on_arm.recall},
                {"rounds_off", double(off_arm.rounds)},
                {"rounds_on", double(on_arm.rounds)},
                {"precision_min_off", off_arm.precision_min},
                {"precision_min_on", on_arm.precision_min}});
      recall_off += off_arm.recall;
      recall_on += on_arm.recall;
      rounds_off += off_arm.rounds;
      rounds_on += on_arm.rounds;
      precision_min = std::min(
          {precision_min, off_arm.precision_min, on_arm.precision_min});
      if (on_arm.recall > off_arm.recall) {
        ++improved;
      } else if (on_arm.recall == off_arm.recall) {
        ++equal;
      } else {
        ++worse;
      }
    }
    json.Add("embedding_sweep",
             {{"seeds", double(seeds)},
              {"recall_off", recall_off / seeds},
              {"recall_on", recall_on / seeds},
              {"rounds_off", rounds_off / seeds},
              {"rounds_on", rounds_on / seeds},
              {"improved", double(improved)},
              {"equal", double(equal)},
              {"worse", double(worse)},
              {"precision_min", precision_min}});
    std::printf("  mean recall %.3f -> %.3f, rounds %.2f -> %.2f; "
                "%d improved, %d equal, %d worse\n",
                recall_off / seeds, recall_on / seeds, rounds_off / seeds,
                rounds_on / seeds, improved, equal, worse);
  }
  json.Finish();
  return 0;
}
