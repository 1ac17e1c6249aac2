#ifndef GRIDVINE_TESTS_SELFORG_SOAK_HARNESS_H_
#define GRIDVINE_TESTS_SELFORG_SOAK_HARNESS_H_

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "gridvine/gridvine_network.h"
#include "selforg/self_organizer.h"
#include "workload/bio_workload.h"

namespace gridvine {

/// Continuous self-organization soak under loss + churn, engine-agnostic.
///
/// Base message loss comes from Network Options::loss_probability and churn
/// is a deterministic SetAlive schedule applied between RunUntil slices —
/// two fault channels that GridVineNetwork offers on both engines.
/// Mid-run one schema evolves (attribute renames), so the soak also covers
/// agreement maintenance: stale deprecation and re-derivation while peers
/// keep dropping out.
struct SelforgSoakScenario {
  uint64_t seed = 1;
  /// Run the content-keyed engine instead of the classic one. The two
  /// consume random streams differently, so their runs differ.
  bool force_sharded = false;
  int peers = 8;
  int schemas = 5;
  /// Base message loss (per-node streams on the keyed engine).
  double loss = 0.03;
  /// Pre-seed a ground-truth mapping mesh (all pairs except 1-2) plus one
  /// erroneous mapping "bad-1-2", all automatic: cycles exist from round 0,
  /// so the incremental assessment genuinely runs under the faults and the
  /// bad edge must get deprecated mid-soak.
  bool seed_mesh = true;
  int churn_rounds = 8;  // rounds run with one (rotating) peer down
  SimTime slice = 1.0;   // simulated time advanced before each round
  int evolve_round = 4;  // schema evolution applied before this round; -1 off
  /// Renaming every attribute deterministically severs all of the evolved
  /// schema's mappings, whatever attribute subset each one covers — so the
  /// repair (stale deprecation) and re-derivation (creation) paths must
  /// both fire at every seed, not just where the renamed attrs happened to
  /// be mapped.
  double rename_fraction = 1.0;
  /// Fault-free convergence tail. Long enough for the repair -> re-derive ->
  /// assess pipeline to reach steady state even when loss delayed the
  /// organizer's view of the evolution by a few rounds.
  int quiet_rounds = 6;
};

/// What a soak run observes. `fingerprint` is the replay object: equal
/// strings mean bit-identical trajectories (per-round reports, final factor
/// graph structure and posteriors, all at full precision).
struct SelforgSoakOutcome {
  std::string fingerprint;
  double final_scc = 0.0;
  /// The last round's dirty-region pass converged under the message cap.
  /// (A non-empty dirty set after the round is legitimate carry-over, not a
  /// leak: the round's closing sync can re-intern records whose replicas
  /// diverged while one was dead, queueing work for the next round.)
  bool converged = false;
  bool matches_rebuild = false;  // digest == fresh assessor over same view
  /// The injected "bad-1-2" mapping is still active in the final view. The
  /// per-round deprecation counters undercount under loss (a push can land
  /// in the DHT while its ack times out, so the next sync flips the record
  /// without a counted deprecation) — end-state is the reliable invariant.
  bool erroneous_active = true;
  /// Some active mapping touches the evolved schema at the end — the
  /// re-derivation closed the hole the evolution tore open.
  bool evolved_relinked = false;
  /// Every pre-seeded ground-truth mapping touching the evolved schema is
  /// deprecated (or gone) in the final view. Like the erroneous catch this
  /// is an end-state invariant: the per-round stale counter undercounts
  /// whenever a deprecation push lands while its ack times out.
  bool stale_severed = false;
  size_t total_created = 0;
  size_t total_deprecated = 0;
  size_t total_stale_deprecated = 0;
  uint64_t bp_messages = 0;  // lifetime factor->variable messages
};

inline std::string FormatRoundReport(int idx,
                                     const SelfOrganizer::RoundReport& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "round=" << idx << " ci=" << r.ci_before << "->" << r.ci_after
     << " scc=" << r.scc_fraction_after << " created=" << r.mappings_created
     << " deprecated=" << r.mappings_deprecated
     << " stale=" << r.mappings_stale_deprecated
     << " active=" << r.active_mappings << " bp_factors=" << r.bp_factors
     << " bp_messages=" << r.bp_messages
     << " bp_converged=" << r.bp_converged << " ids=[";
  for (const auto& id : r.created_ids) os << "+" << id << ",";
  for (const auto& id : r.deprecated_ids) os << "-" << id << ",";
  for (const auto& id : r.stale_deprecated_ids) os << "~" << id << ",";
  os << "]\n";
  return os.str();
}

/// Structure digest + warm posteriors at full precision — the "no leaked
/// assessment state" comparison object.
inline std::string AssessorFingerprint(const IncrementalAssessor& a) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << a.StructureDigest() << "posteriors:";
  for (const auto& [id, p] : a.Posteriors()) os << " " << id << "=" << p;
  os << "\n";
  return os.str();
}

inline SelforgSoakOutcome RunSelforgSoak(const SelforgSoakScenario& sc) {
  GridVineNetwork::Options no;
  no.num_peers = size_t(sc.peers);
  no.key_depth = 12;
  no.seed = sc.seed;
  no.latency = GridVineNetwork::LatencyKind::kConstant;
  no.latency_param = 0.01;
  no.loss_probability = sc.loss;
  no.force_sharded = sc.force_sharded;
  no.peer.query_timeout = 4.0;
  GridVineNetwork net(no);

  BioWorkload::Options wo;
  wo.num_schemas = size_t(sc.schemas);
  wo.num_entities = 40;
  wo.entities_per_schema = 16;
  wo.min_attrs = 4;
  wo.max_attrs = 6;
  wo.value_noise = 0.0;
  wo.seed = 21;
  BioWorkload workload(wo);

  // Data load runs under base loss too — the reliability layer absorbs
  // almost all of it, and a deterministic bounded retry covers the rare
  // exhausted-retries timeout (the same seed always loses the same
  // messages, so the retry pattern replays too).
  auto insist = [](auto&& op) {
    Status st = op();
    for (int attempt = 0; attempt < 3 && !st.ok(); ++attempt) st = op();
    EXPECT_TRUE(st.ok()) << st;
  };
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    insist([&] { return net.InsertSchema(s, workload.schemas()[s]); });
    insist([&] { return net.InsertTriples(s, workload.TriplesFor(s)); });
  }
  if (sc.seed_mesh) {
    for (size_t i = 0; i < workload.schemas().size(); ++i) {
      for (size_t j = i + 1; j < workload.schemas().size(); ++j) {
        if (i == 1 && j == 2) continue;
        SchemaMapping gt = workload.GroundTruthMapping(
            i, j, "gt-" + std::to_string(i) + "-" + std::to_string(j));
        gt.set_provenance(MappingProvenance::kAutomatic);
        gt.set_confidence(0.7);
        insist([&] { return net.InsertMapping(i, gt); });
      }
    }
    Rng bad_rng(13);
    SchemaMapping bad = workload.ErroneousMapping(1, 2, "bad-1-2", &bad_rng);
    insist([&] { return net.InsertMapping(1, bad); });
  }
  net.Settle();

  SelfOrganizer::Options oo;
  oo.domain = "protein-sequences";
  oo.creations_per_round = 3;
  oo.seed = 9;
  SelfOrganizer organizer(&net, oo);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    organizer.RegisterSchemaOwner(workload.schemas()[s].name(), s);
  }

  std::ostringstream fp;
  std::vector<SelfOrganizer::RoundReport> reports;
  int round_idx = 0;
  auto run_round = [&] {
    reports.push_back(organizer.RunRound());
    fp << FormatRoundReport(round_idx++, reports.back());
  };

  // Churn phase: each round a fresh victim (never the issuer, peer 0) is
  // dead for the slice and the round itself; it rejoins when the next
  // victim is drawn. SetAlive between RunUntil slices.
  Rng churn_rng(sc.seed * 0x9e3779b97f4a7c15ULL + 29);
  int down = -1;
  std::string evolved_name = workload.schemas()[2].name();
  for (int r = 0; r < sc.churn_rounds; ++r) {
    if (sc.evolve_round >= 0 && r == sc.evolve_round) {
      // Schema evolution is applied with every peer up (the owner must
      // accept the upsert); churn resumes right after.
      if (down >= 0) net.SetAlive(size_t(down), true);
      down = -1;
      net.RunUntil(net.Now() + sc.slice);
      Rng ev_rng(sc.seed + 77);
      BioWorkload::SchemaEvolution ev =
          workload.EvolveSchema(2, sc.rename_fraction, &ev_rng);
      evolved_name = ev.new_schema.name();
      EXPECT_FALSE(ev.renamed_uris.empty());
      // The soak's invariants depend on the evolution landing; `insist`
      // keeps an exhausted-retries timeout from silently skipping it.
      insist([&] { return net.UpsertSchema(2, ev.new_schema); });
      for (const auto& t : ev.removed_triples) {
        insist([&] { return net.RemoveTriple(2, t); });
      }
      for (const auto& t : ev.added_triples) {
        insist([&] { return net.InsertTriple(2, t); });
      }
    }
    if (down >= 0) net.SetAlive(size_t(down), true);
    down = int(churn_rng.UniformInt(1, sc.peers - 1));
    net.SetAlive(size_t(down), false);
    net.RunUntil(net.Now() + sc.slice);
    run_round();
  }
  if (down >= 0) net.SetAlive(size_t(down), true);

  // Fault-free tail: organization must converge and the dirty region drain.
  for (int r = 0; r < sc.quiet_rounds; ++r) {
    net.RunUntil(net.Now() + sc.slice);
    run_round();
  }
  net.Settle();

  SelforgSoakOutcome out;
  for (const auto& r : reports) {
    out.total_created += r.mappings_created;
    out.total_deprecated += r.mappings_deprecated;
    out.total_stale_deprecated += r.mappings_stale_deprecated;
  }
  out.final_scc = reports.back().scc_fraction_after;
  out.converged = reports.back().bp_converged;
  out.bp_messages = organizer.assessor().lifetime_messages();

  // Leak check: the maintained factor graph, after the full event history
  // (creations, deprecations, stale repair, failed syncs while owners were
  // down), must equal what a fresh assessor builds from the same view.
  MappingGraph copy = organizer.graph_view();
  copy.SetListener(nullptr);
  IncrementalAssessor fresh(organizer.assessor().options());
  fresh.Attach(&copy);
  out.matches_rebuild =
      organizer.assessor().StructureDigest() == fresh.StructureDigest();

  auto bad = copy.Get("bad-1-2");
  out.erroneous_active = bad.ok() && !bad->deprecated();
  if (sc.seed_mesh && sc.evolve_round >= 0) {
    // rename_fraction=1.0 severed every mapping on schema 2, so each of the
    // pre-evolution ground-truth edges must end up deprecated (a record can
    // also vanish entirely if its replicas were all churned out mid-repair).
    out.stale_severed = true;
    for (int other : {0, 3, 4}) {
      std::string id = other < 2 ? "gt-" + std::to_string(other) + "-2"
                                 : "gt-2-" + std::to_string(other);
      auto stale = copy.Get(id);
      if (stale.ok() && !stale->deprecated()) out.stale_severed = false;
    }
  }
  for (const auto& schema : copy.Schemas()) {
    for (const auto& m : copy.MappingsFrom(schema)) {  // active only
      if (m.source_schema() == evolved_name ||
          m.target_schema() == evolved_name) {
        out.evolved_relinked = true;
      }
    }
  }

  fp << AssessorFingerprint(organizer.assessor());
  out.fingerprint = fp.str();
  return out;
}

}  // namespace gridvine

#endif  // GRIDVINE_TESTS_SELFORG_SOAK_HARNESS_H_
