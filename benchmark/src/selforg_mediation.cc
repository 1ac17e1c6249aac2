// selforg_mediation — the paper's §3–4 storyline, closed loop, one client.
//
// A 340-peer deployment holds a BioWorkload with no mappings at all. The
// self-organizer runs rounds until the largest strongly connected component
// of the mapping graph covers every schema (global interoperability); a
// batch of iterative reformulated queries is then scored against the
// workload's ground truth; one schema evolves (every renamable attribute
// moves to another vocabulary variant, replayed through UpsertSchema,
// RemoveTriple and InsertTriple); repair rounds restore interoperability and
// a second batch of queries measures how much recall came back.
// Self-organization, reformulation and DHT writes (mappings, degrees,
// schema upserts) do the work; the serving layer does none.
//
// One network's outcome depends heavily on its seed: over 48 20-schema
// networks, rounds to interoperability ranged from 5 to 21 and recall from
// 0.43 to 0.91. A pass therefore pools many small independent storylines,
// each running at least kOrganizeRounds and kRepairRounds rounds, so the
// work of a pass varies little from seed to seed.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "schema/schema.h"
#include "selforg/self_organizer.h"
#include "workload/bio_workload.h"

namespace gvbench {
namespace {

constexpr size_t kPeers = 340;
constexpr int kOrganizeRounds = 10;
constexpr int kMaxRounds = 40;
constexpr int kRepairRounds = 2;
constexpr int kMaxRepairRounds = 10;
constexpr size_t kEvolvedSchema = 3;
constexpr size_t kTraceRing = size_t(1) << 18;

struct Sizes {
  size_t instances;  // independent storylines per pass
  int schemas;
  int entities;
  int entities_per_schema;
  size_t queries;  // per batch; two batches per storyline
};

// One independent storyline's inputs: its workload, the evolution replayed
// mid-run, reference stores before and after it, and the two query batches.
struct Instance {
  Instance(uint64_t instance_seed, const Sizes& sizes)
      : seed(instance_seed),
        workload(WorkloadOptions(instance_seed, sizes)),
        evolved(workload) {
    Rng evolve_rng(SubSeed(seed, 2));
    evolution = evolved.EvolveSchema(kEvolvedSchema, 1.0, &evolve_rng);
    for (size_t s = 0; s < workload.schemas().size(); ++s) {
      (void)before.InsertBatch(workload.TriplesFor(s));
      (void)after.InsertBatch(evolved.TriplesFor(s));
    }
    // The same draws against the original and the evolved workload: equal
    // queries, except that queries posed against the evolved schema use its
    // new attribute names.
    Rng pre_rng(SubSeed(seed, 3));
    Rng post_rng(SubSeed(seed, 3));
    Rng issuer_rng(SubSeed(seed, 4));
    for (size_t i = 0; i < sizes.queries; ++i) {
      const size_t s = i % workload.schemas().size();
      pre.push_back(workload.MakeQuery(s, &pre_rng));
      post.push_back(evolved.MakeQuery(s, &post_rng));
      issuers.push_back(size_t(issuer_rng.UniformInt(0, int64_t(kPeers) - 1)));
    }
  }

  static BioWorkload::Options WorkloadOptions(uint64_t seed,
                                              const Sizes& sizes) {
    BioWorkload::Options wl;
    wl.num_schemas = sizes.schemas;
    wl.num_entities = sizes.entities;
    wl.entities_per_schema = sizes.entities_per_schema;
    wl.seed = SubSeed(seed, 1);
    return wl;
  }

  uint64_t seed;
  BioWorkload workload;
  BioWorkload evolved;
  BioWorkload::SchemaEvolution evolution;
  TripleStore before;
  TripleStore after;
  std::vector<BioWorkload::GeneratedQuery> pre;
  std::vector<BioWorkload::GeneratedQuery> post;
  std::vector<size_t> issuers;
};

// Storyline outcomes summed over a pass's instances.
struct Storyline {
  size_t rounds_to_interop = 0;
  double recall_pre = 0;
  double recall_post = 0;
  size_t created = 0;
  size_t deprecated = 0;
  size_t stale = 0;
  size_t bp_messages = 0;
  size_t active = 0;
};

class SelforgMediation : public Workload {
 public:
  SelforgMediation(uint64_t seed, bool smoke)
      : sizes_(smoke ? Sizes{2, 8, 60, 20, 16} : Sizes{32, 10, 100, 30, 60}) {
    for (size_t i = 0; i < sizes_.instances; ++i) {
      instances_.push_back(std::make_unique<Instance>(SubSeed(seed, 100 + i),
                                                      sizes_));
    }
  }

  std::vector<std::pair<std::string, double>> Params() const override {
    return {{"peers", double(kPeers)},
            {"instances", double(sizes_.instances)},
            {"schemas", double(sizes_.schemas)},
            {"entities", double(sizes_.entities)},
            {"entities_per_schema", double(sizes_.entities_per_schema)},
            {"triples", double(instances_[0]->before.size())},
            {"queries_per_batch", double(sizes_.queries)},
            {"evolved_schema", double(kEvolvedSchema)}};
  }

  Pass RunPass(HostSpans* spans) override {
    Pass pass;
    Storyline story;
    MetricMap acc;
    for (const auto& instance : instances_) {
      RunInstance(*instance, spans, &pass, &story, &acc);
    }
    pass.FinishLayers(acc);
    const double recovery =
        story.recall_pre > 0 ? story.recall_post / story.recall_pre : 0;
    if (recovery < 0.95) {
      pass.Error("recall recovered to only " + std::to_string(recovery) +
                 " of its pre-evolution value");
    }
    const double n = double(instances_.size());
    MetricMap& l = pass.layer;
    l["selforg.rounds_to_interop"] = double(story.rounds_to_interop) / n;
    l["selforg.recall_recovery"] = recovery;
    l["selforg.mappings_created"] = double(story.created) / n;
    l["selforg.mappings_deprecated"] = double(story.deprecated) / n;
    l["selforg.stale_deprecated"] = double(story.stale) / n;
    l["selforg.bp_messages"] = double(story.bp_messages) / n;
    l["selforg.kept_ratio"] =
        story.created > 0 ? double(story.active) / double(story.created) : 0;
    l["store.bytes_per_triple"] = StoreBytesPerTriple(*net_);
    return pass;
  }

  void Probe(MetricMap* layer) override {
    const Instance& last = *instances_.back();
    ProbeInputs in;
    in.net = net_.get();
    in.graph = &organizer_->graph_view();
    in.max_hops = sizes_.schemas;
    for (const auto& gq : last.post) {
      in.patterns.push_back(gq.query.pattern());
      in.reformulate.push_back(gq.query);
      in.conjunctive.push_back(
          SiblingJoin(gq.query.pattern(), last.evolved.schemas()));
    }
    RunProbes(in, layer);
  }

 private:
  /// Set-up, then organize -> query -> evolve -> repair -> query on a fresh
  /// deployment. The deployment stays alive for the probes.
  void RunInstance(const Instance& in, HostSpans* spans, Pass* pass,
                   Storyline* story, MetricMap* acc) {
    organizer_.reset();
    net_.reset();
    const auto t0 = Clock::now();
    {
      HostSpan span(spans, "GridVineNetwork");
      net_ = std::make_unique<GridVineNetwork>(NetOptions(in.seed));
    }
    for (size_t s = 0; s < in.workload.schemas().size(); ++s) {
      HostSpan load(spans, "LoadSchema");
      if (!net_->InsertSchema(Owner(s), in.workload.schemas()[s]).ok() ||
          !net_->InsertTriples(Owner(s), in.workload.TriplesFor(s)).ok()) {
        pass->Error("loading schema " + in.workload.schemas()[s].name());
      }
    }
    {
      HostSpan span(spans, "Settle");
      net_->Settle();
    }
    SelfOrganizer::Options org;
    org.domain = in.workload.options().domain;
    org.creations_per_round = 4;
    org.seed = SubSeed(in.seed, 5);
    organizer_ = std::make_unique<SelfOrganizer>(net_.get(), org);
    for (size_t s = 0; s < in.workload.schemas().size(); ++s) {
      organizer_->RegisterSchemaOwner(in.workload.schemas()[s].name(),
                                      Owner(s));
    }
    pass->setup_s.push_back(SecondsSince(t0));

    const bool traced = spans != nullptr;
    if (traced) net_->tracer()->Enable(kTraceRing);
    const MetricMap before = ReadCounters(*net_);

    auto round = [&] {
      const auto r0 = Clock::now();
      SelfOrganizer::RoundReport report;
      {
        HostSpan span(spans, "RunRound");
        report = organizer_->RunRound();
      }
      const double s = SecondsSince(r0);
      pass->round_s.push_back(s);
      pass->run_s += s;
      story->created += report.mappings_created;
      story->deprecated += report.mappings_deprecated;
      story->stale += report.mappings_stale_deprecated;
      story->bp_messages += report.bp_messages;
      for (const std::string& id : report.created_ids) pass->digest.Mix(id);
      for (const std::string& id : report.deprecated_ids) pass->digest.Mix(id);
      pass->digest.Mix(report.scc_fraction_after);
      if (traced) pass->trace.Discard(*net_->tracer());
      return report;
    };

    // Phase 1: organize from zero mappings to global interoperability.
    double scc = 0;
    int rounds = 0;
    int rounds_to_interop = 0;
    while ((scc < 1.0 || rounds < kOrganizeRounds) && rounds < kMaxRounds) {
      scc = round().scc_fraction_after;
      ++rounds;
      if (scc >= 1.0 && rounds_to_interop == 0) rounds_to_interop = rounds;
    }
    if (scc < 1.0) {
      pass->Error("no global interoperability after " +
                  std::to_string(kMaxRounds) + " rounds");
    }
    story->rounds_to_interop += size_t(rounds_to_interop);
    const double recall_pre =
        QueryBatch(in, in.pre, in.before, spans, pass);
    story->recall_pre += recall_pre;

    // Phase 2: the schema evolves; its owner replays the change.
    {
      const auto e0 = Clock::now();
      HostSpan span(spans, "EvolveSchema");
      const size_t owner = Owner(kEvolvedSchema);
      bool ok = net_->UpsertSchema(owner, in.evolution.new_schema).ok();
      for (const Triple& t : in.evolution.removed_triples) {
        ok = net_->RemoveTriple(owner, t).ok() && ok;
      }
      for (const Triple& t : in.evolution.added_triples) {
        ok = net_->InsertTriple(owner, t).ok() && ok;
      }
      net_->Settle();
      pass->run_s += SecondsSince(e0);
      if (!ok) pass->Error("replaying the schema evolution");
      if (traced) pass->trace.Discard(*net_->tracer());
    }

    // Phase 3: repair rounds deprecate the stale mappings and re-derive
    // replacements until the graph is strongly connected again.
    size_t stale = 0;
    int repair = 0;
    do {
      const SelfOrganizer::RoundReport report = round();
      scc = report.scc_fraction_after;
      stale += report.mappings_stale_deprecated;
      ++repair;
    } while ((scc < 1.0 || stale == 0 || repair < kRepairRounds) &&
             repair < kMaxRepairRounds);
    if (scc < 1.0) pass->Error("interoperability not restored by repair");
    const double recall_post =
        QueryBatch(in, in.post, in.after, spans, pass);
    story->recall_post += recall_post;
    story->active += organizer_->graph_view().active_mapping_count();

    AccumulateCounters(before, ReadCounters(*net_), acc);
    if (traced) net_->tracer()->Disable();
  }

  GridVineNetwork::Options NetOptions(uint64_t seed) const {
    // A 5 ms floor plus a log-normal part with a ~5 ms median: close to a
    // constant 10 ms, but with enough jitter that simulated latencies are
    // not a handful of exact multiples of one delay.
    GridVineNetwork::Options o;
    o.num_peers = kPeers;
    o.key_depth = 16;
    o.seed = SubSeed(seed, 6);
    o.latency = GridVineNetwork::LatencyKind::kWan;
    o.latency_param = 0.005;
    o.wan_mu = -5.3;
    o.wan_sigma = 0.5;
    o.peer.query_timeout = 10.0;
    return o;
  }

  static size_t Owner(size_t schema) { return (schema * 7) % kPeers; }

  /// Runs one batch of iterative reformulated queries; returns its mean
  /// recall against the workload's ground truth. Every returned row must be
  /// backed by a triple of the schema it was attributed to that matches the
  /// query's constraint in `reference`.
  double QueryBatch(const Instance& in,
                    const std::vector<BioWorkload::GeneratedQuery>& batch,
                    const TripleStore& reference, HostSpans* spans,
                    Pass* pass) {
    GridVinePeer::QueryOptions opts;
    opts.reformulate = true;
    opts.mode = ReformulationMode::kIterative;
    opts.max_hops = sizes_.schemas;
    opts.timeout = 30.0;
    double recall = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const BioWorkload::GeneratedQuery& gq = batch[i];
      GridVinePeer::QueryResult r;
      const auto q0 = Clock::now();
      {
        HostSpan span(spans, "SearchFor");
        r = net_->SearchFor(in.issuers[i], gq.query, opts);
      }
      const double us = SecondsSince(q0) * 1e6;
      pass->host_op_us.push_back(us);
      pass->run_s += us * 1e-6;
      ++pass->attempted;
      if (!r.status.ok()) {
        ++pass->failed;
        pass->Error("query " + gq.query.ToString() + ": " +
                    r.status.ToString());
        continue;
      }
      ++pass->ops;
      pass->sim_latency_s.push_back(r.latency);
      pass->CountSchemas(r);
      std::set<std::string> found;
      for (const auto& item : r.items) {
        found.insert(item.value.value());
        if (!Backed(reference, item, gq.query.pattern().object())) {
          pass->Error("row " + item.value.value() + " from " + item.schema +
                      " not backed by the reference store");
        }
      }
      const double q_recall = BioWorkload::Recall(gq, found);
      recall += q_recall;
      pass->recall_sum += q_recall;
      ++pass->recall_n;
      pass->digest.Mix(r.latency);
      for (const std::string& v : found) pass->digest.Mix(v);
      if (spans != nullptr) pass->trace.Drain(*net_->tracer(), {r.trace_id});
    }
    return batch.empty() ? 0 : recall / double(batch.size());
  }

  static bool Backed(const TripleStore& reference,
                     const GridVinePeer::ResultItem& item,
                     const Term& constraint) {
    for (const Triple& t : reference.Select(
             TriplePattern(item.value, Term::Var("p"), constraint))) {
      if (Schema::SchemaOfUri(t.predicate().value()) == item.schema) {
        return true;
      }
    }
    return false;
  }

  Sizes sizes_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::unique_ptr<GridVineNetwork> net_;
  std::unique_ptr<SelfOrganizer> organizer_;
};

}  // namespace

std::unique_ptr<Workload> MakeSelforgMediation(uint64_t seed, bool smoke) {
  return std::make_unique<SelforgMediation>(seed, smoke);
}

}  // namespace gvbench
