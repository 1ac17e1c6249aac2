#ifndef GRIDVINE_BENCH_SELFORG_SCALE_H_
#define GRIDVINE_BENCH_SELFORG_SCALE_H_

// Shared driver for the schema-evolution-at-scale experiment: a network of
// `peers` peers (keyed engine at the larger sizes) self-organizes from
// zero mappings to full interoperability, one schema then evolves mid-run
// (every renamable attribute moves to a different vocabulary variant), and
// continued rounds must repair the damage — deprecate the dangling
// mappings, re-derive replacements, and recover query recall.
//
// Used by bench_selforg (network-size sweep), and by bench_recall_evolution
// / bench_mapping_quality for their evolution_at_scale rows, so the three
// JSON records stay consistent with each other.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "selforg/self_organizer.h"
#include "workload/bio_workload.h"

namespace gridvine {
namespace bench {

struct EvolutionScaleResult {
  size_t peers = 0;
  int convergence_rounds = 0;  // rounds to reach scc == 1.0 from no mappings
  double recall_pre = 0;       // query recall at convergence
  double recall_post = 0;      // right after the evolution (the dip)
  double recall_final = 0;     // after the repair rounds
  int recovery_rounds = 0;     // rounds from evolution until recovered (or cap)
  size_t stale_deprecated = 0;  // dangling mappings repaired away
  size_t created_total = 0;     // mappings created over the whole run
  uint64_t bp_messages = 0;     // lifetime incremental BP messages
  // Simulated traffic of the convergence and post-evolution loops
  // ("net.messages_sent" / "net.bytes_sent" deltas).
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double organize_seconds = 0;  // wall time of the initial convergence loop
  double repair_seconds = 0;    // wall time of the post-evolution loop
};

inline double MeasureScaleRecall(
    GridVineNetwork& net, const std::vector<BioWorkload::GeneratedQuery>& qs,
    const BioWorkload& workload) {
  double total = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    GridVinePeer::QueryOptions opts;
    opts.reformulate = true;
    opts.mode = ReformulationMode::kIterative;
    opts.max_hops = int(workload.schemas().size());
    opts.timeout = 30.0;
    auto res = net.SearchFor(i % workload.schemas().size(), qs[i].query, opts);
    std::set<std::string> found;
    for (const auto& item : res.items) found.insert(item.value.value());
    total += BioWorkload::Recall(qs[i], found);
  }
  return qs.empty() ? 0.0 : total / double(qs.size());
}

inline EvolutionScaleResult RunEvolutionAtScale(size_t peers, uint64_t seed,
                                                bool verbose = false) {
  using clock = std::chrono::steady_clock;
  EvolutionScaleResult out;
  out.peers = peers;

  GridVineNetwork::Options no;
  no.num_peers = peers;
  no.key_depth = 16;
  no.seed = seed;
  no.latency = GridVineNetwork::LatencyKind::kConstant;
  no.latency_param = 0.01;
  // The content-keyed engine carries the large sizes.
  no.force_sharded = peers >= 4096;
  no.peer.query_timeout = 10.0;
  GridVineNetwork net(no);

  BioWorkload::Options wl;
  wl.num_schemas = 8;
  wl.num_entities = 120;
  wl.entities_per_schema = 30;
  wl.seed = 31;
  BioWorkload workload(wl);

  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    if (!net.InsertSchema(s, workload.schemas()[s]).ok()) return out;
    if (!net.InsertTriples(s, workload.TriplesFor(s)).ok()) return out;
  }
  net.Settle();

  SelfOrganizer::Options org;
  org.domain = workload.options().domain;
  org.creations_per_round = 4;
  org.seed = 5;
  SelfOrganizer organizer(&net, org);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    organizer.RegisterSchemaOwner(workload.schemas()[s].name(), s);
  }

  // Fixed query mix: the concept every schema realizes, one query per
  // schema — full interoperability means recall ~1 whatever the issuer.
  Rng qrng(77);
  std::vector<BioWorkload::GeneratedQuery> queries;
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    queries.push_back(workload.MakeQuery(s, &qrng, "organism"));
  }

  // Messages and bytes sent network-wide so far; CollectMetrics reads
  // either engine.
  struct Traffic {
    uint64_t messages = 0, bytes = 0;
  };
  auto traffic = [&net] {
    MetricsRegistry& m = net.CollectMetrics();
    return Traffic{m.Counter("net.messages_sent"), m.Counter("net.bytes_sent")};
  };
  // Adds the traffic since `mark` to out.messages / out.bytes.
  auto add_traffic_since = [&](const Traffic& mark) {
    Traffic now = traffic();
    out.messages += now.messages - mark.messages;
    out.bytes += now.bytes - mark.bytes;
  };

  // Phase 1: organize from zero mappings to global interoperability.
  Traffic mark = traffic();
  auto t0 = clock::now();
  const int kMaxRounds = 16;
  for (int round = 1; round <= kMaxRounds; ++round) {
    auto report = organizer.RunRound();
    out.created_total += report.mappings_created;
    out.convergence_rounds = round;
    if (verbose) {
      std::printf("    organize round %d: ci=%.2f scc=%.0f%% created=%zu\n",
                  round, report.ci_after, report.scc_fraction_after * 100,
                  report.mappings_created);
    }
    if (report.scc_fraction_after >= 1.0) break;
  }
  out.organize_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  add_traffic_since(mark);
  out.recall_pre = MeasureScaleRecall(net, queries, workload);

  // Phase 2: one schema evolves — every renamable attribute moves to a
  // different vocabulary variant, severing the mappings that reference it.
  Rng ev_rng(seed + 7);
  auto ev = workload.EvolveSchema(3, 1.0, &ev_rng);
  if (!net.UpsertSchema(3, ev.new_schema).ok()) return out;
  for (const auto& t : ev.removed_triples) {
    if (!net.RemoveTriple(3, t).ok()) return out;
  }
  for (const auto& t : ev.added_triples) {
    if (!net.InsertTriple(3, t).ok()) return out;
  }
  net.Settle();
  out.recall_post = MeasureScaleRecall(net, queries, workload);

  // Phase 3: continued rounds repair (stale deprecation) and re-derive.
  mark = traffic();
  t0 = clock::now();
  const int kMaxRepairRounds = 10;
  for (int round = 1; round <= kMaxRepairRounds; ++round) {
    auto report = organizer.RunRound();
    out.created_total += report.mappings_created;
    out.stale_deprecated += report.mappings_stale_deprecated;
    out.recovery_rounds = round;
    double recall = MeasureScaleRecall(net, queries, workload);
    out.recall_final = recall;
    if (verbose) {
      std::printf(
          "    repair round %d: scc=%.0f%% stale=%zu created=%zu "
          "recall=%.0f%%\n",
          round, report.scc_fraction_after * 100,
          report.mappings_stale_deprecated, report.mappings_created,
          recall * 100);
    }
    if (report.scc_fraction_after >= 1.0 &&
        recall >= 0.95 * out.recall_pre) {
      break;
    }
  }
  out.repair_seconds =
      std::chrono::duration<double>(clock::now() - t0).count();
  add_traffic_since(mark);
  out.bp_messages = organizer.assessor().lifetime_messages();
  return out;
}

}  // namespace bench
}  // namespace gridvine

#endif  // GRIDVINE_BENCH_SELFORG_SCALE_H_
