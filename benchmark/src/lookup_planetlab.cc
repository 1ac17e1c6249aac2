// lookup_planetlab — the paper's §2.3 deployment, closed loop, one client.
//
// 340 peers on the heavy-tailed WAN latency model with E1's stragglers hold
// ~16.6k triples from a 50-schema BioWorkload. One client issues
// single-pattern '%fragment%' queries without reformulation, one at a time,
// from random peers. The queries have BioWorkload::MakeQuery's shape but are
// cut from the loaded triples, so generating them costs microseconds rather
// than MakeQuery's full-corpus scan. The event engine, P-Grid routing and
// GridVine dispatch do almost all the work; reformulation, the planner, the
// serving layer and self-organization do none.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/bio_workload.h"

namespace gvbench {
namespace {

constexpr size_t kPeers = 340;
// Closed-loop queries are analysed in chunks this size in traced passes;
// the ring must hold one chunk's spans.
constexpr size_t kTraceChunk = 256;
constexpr size_t kTraceRing = size_t(1) << 17;

BioWorkload::Options WorkloadOptions(uint64_t seed) {
  BioWorkload::Options wl;
  wl.num_schemas = 50;
  wl.num_entities = 500;
  wl.entities_per_schema = 42;
  wl.seed = SubSeed(seed, 1);
  return wl;
}

class LookupPlanetlab : public Workload {
 public:
  LookupPlanetlab(uint64_t seed, bool smoke)
      : seed_(seed), workload_(WorkloadOptions(seed)) {
    TripleStore reference;
    for (size_t s = 0; s < workload_.schemas().size(); ++s) {
      (void)reference.InsertBatch(workload_.TriplesFor(s));
    }
    triples_ = reference.size();
    const size_t count = smoke ? 2000 : 100000;
    Rng rng(SubSeed(seed, 2));
    queries_.reserve(count);
    while (queries_.size() < count) {
      const size_t s =
          size_t(rng.UniformInt(0, int64_t(workload_.schemas().size()) - 1));
      const Triple& t = rng.PickOne(workload_.TriplesFor(s));
      // MakeQuery's categorical concepts only: accessions and lengths are
      // unique per entity and would make every answer a single row.
      const std::string concept_name =
          workload_.ConceptOf(t.predicate().value());
      if (concept_name == "accession" || concept_name == "length") continue;
      const std::string& value = t.object().value();
      const std::string fragment = value.substr(0, value.find(' '));
      Query q;
      q.issuer = size_t(rng.UniformInt(0, int64_t(kPeers) - 1));
      q.query = TriplePatternQuery(
          "x", TriplePattern(Term::Var("x"), t.predicate(),
                             Term::Literal("%" + fragment + "%")));
      q.reference = ReferenceAnswer(reference, q.query.pattern(), "x");
      queries_.push_back(std::move(q));
    }
  }

  std::vector<std::pair<std::string, double>> Params() const override {
    return {{"peers", double(kPeers)},
            {"schemas", double(workload_.schemas().size())},
            {"triples", double(triples_)},
            {"queries_per_pass", double(queries_.size())},
            {"wan_straggler_prob", 0.09}};
  }

  Pass RunPass(HostSpans* spans) override {
    Pass pass;
    net_.reset();
    auto t0 = Clock::now();
    {
      HostSpan span(spans, "GridVineNetwork");
      net_ = std::make_unique<GridVineNetwork>(NetOptions());
    }
    for (size_t s = 0; s < workload_.schemas().size(); ++s) {
      const size_t owner = Owner(s);
      HostSpan load(spans, "LoadSchema");
      if (!net_->InsertSchema(owner, workload_.schemas()[s]).ok() ||
          !net_->InsertTriples(owner, workload_.TriplesFor(s)).ok()) {
        pass.Error("loading schema " + workload_.schemas()[s].name());
      }
    }
    {
      HostSpan span(spans, "Settle");
      net_->Settle();
    }
    pass.setup_s.push_back(SecondsSince(t0));

    const bool traced = spans != nullptr;
    if (traced) net_->tracer()->Enable(kTraceRing);
    const MetricMap before = ReadCounters(*net_);
    std::vector<uint64_t> chunk;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      GridVinePeer::QueryResult r;
      const auto q0 = Clock::now();
      {
        HostSpan span(spans, "SearchFor");
        r = net_->SearchFor(q.issuer, q.query);
      }
      const double us = SecondsSince(q0) * 1e6;
      pass.host_op_us.push_back(us);
      pass.run_s += us * 1e-6;
      ++pass.attempted;
      if (!r.status.ok()) {
        ++pass.failed;
        pass.Error("query " + std::to_string(i) + ": " + r.status.ToString());
        continue;
      }
      ++pass.ops;
      pass.sim_latency_s.push_back(r.latency);
      pass.CountSchemas(r);
      const std::vector<std::string> returned = ReturnedValues(r);
      pass.Score(returned, q.reference, "query " + std::to_string(i));
      pass.digest.Mix(r.latency);
      for (const std::string& v : returned) pass.digest.Mix(v);
      if (traced) {
        chunk.push_back(r.trace_id);
        if (chunk.size() == kTraceChunk) {
          pass.trace.Drain(*net_->tracer(), chunk);
          chunk.clear();
        }
      }
    }
    if (traced) pass.trace.Drain(*net_->tracer(), chunk);
    MetricMap acc;
    AccumulateCounters(before, ReadCounters(*net_), &acc);
    pass.FinishLayers(acc);
    pass.layer["store.bytes_per_triple"] = StoreBytesPerTriple(*net_);
    if (traced) net_->tracer()->Disable();
    return pass;
  }

  void Probe(MetricMap* layer) override {
    ProbeInputs in;
    in.net = net_.get();
    in.domain = workload_.options().domain;
    for (size_t i = 0; i < queries_.size() && i < 256; ++i) {
      const TriplePatternQuery& q = queries_[i].query;
      in.patterns.push_back(q.pattern());
      in.reformulate.push_back(q);
      in.conjunctive.push_back(SiblingJoin(q.pattern(), workload_.schemas()));
    }
    for (size_t s = 0; s < workload_.schemas().size(); ++s) {
      in.schema_owners.emplace_back(workload_.schemas()[s].name(), Owner(s));
    }
    RunProbes(in, layer);
  }

 private:
  struct Query {
    size_t issuer = 0;
    TriplePatternQuery query;
    std::vector<std::string> reference;
  };

  static size_t Owner(size_t schema) { return (schema * 7) % kPeers; }

  GridVineNetwork::Options NetOptions() const {
    // E1's calibration (bench_query_latency): a 15 ms propagation floor,
    // a log-normal variable part with a ~110 ms median, and 9% of messages
    // picking up an exponential straggler delay of mean 6 s.
    GridVineNetwork::Options o;
    o.num_peers = kPeers;
    o.key_depth = 16;
    o.seed = SubSeed(seed_, 3);
    o.latency = GridVineNetwork::LatencyKind::kWan;
    o.latency_param = 0.015;
    o.wan_mu = -2.5;
    o.wan_sigma = 1.2;
    o.wan_straggler_prob = 0.09;
    o.wan_straggler_mean = 6.0;
    o.peer.query_timeout = 30.0;
    o.overlay.retry.base_timeout = 30.0;
    return o;
  }

  uint64_t seed_;
  BioWorkload workload_;
  size_t triples_ = 0;
  std::vector<Query> queries_;
  std::unique_ptr<GridVineNetwork> net_;
};

}  // namespace

std::unique_ptr<Workload> MakeLookupPlanetlab(uint64_t seed, bool smoke) {
  return std::make_unique<LookupPlanetlab>(seed, smoke);
}

}  // namespace gvbench
