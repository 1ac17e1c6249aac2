// Layer probes, run after the timed passes of a traced run. Each probe
// replays the workload's own inputs against one module's public functions
// and times the calls from outside: TripleStore selection and join on the
// local store of the peer that holds each routing key, the physical
// planner, query expansion over the mapping graph, sketch construction, and
// one self-organization round where the workload runs none of its own.

#include <map>
#include <set>

#include "harness.h"
#include "query/planner.h"
#include "query/reformulation.h"
#include "query/stats/sketch.h"
#include "selforg/self_organizer.h"

namespace gvbench {
namespace {

// Each sample times this many back-to-back calls, so sub-microsecond calls
// still read well above the clock's resolution.
constexpr int kReps = 8;

// Probe results are folded in here so the timed calls cannot be elided.
volatile size_t probe_sink = 0;

template <typename F>
double TimeUs(F&& f) {
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) f();
  return SecondsSince(t0) * 1e6 / kReps;
}

/// The local store of the first peer responsible for `pattern`'s routing
/// key, or null for an unroutable pattern.
const TripleStore* StoreFor(GridVineNetwork& net, const TriplePattern& pattern,
                            std::map<std::string, size_t>* cache) {
  const auto pos = pattern.RoutingConstant();
  if (!pos.has_value()) return nullptr;
  const std::string& value = pattern.at(*pos).value();
  auto it = cache->find(value);
  if (it == cache->end()) {
    const Key key = net.peer(0)->hasher()(value);
    size_t owner = 0;
    while (owner < net.size() &&
           !net.peer(owner)->overlay()->IsResponsibleFor(key)) {
      ++owner;
    }
    it = cache->emplace(value, owner).first;
  }
  return it->second < net.size() ? &net.peer(it->second)->local_db() : nullptr;
}

}  // namespace

ConjunctiveQuery SiblingJoin(const TriplePattern& pattern,
                             const std::vector<Schema>& schemas) {
  const std::string& predicate = pattern.predicate().value();
  const std::string schema = Schema::SchemaOfUri(predicate);
  std::string other = predicate;
  for (const Schema& s : schemas) {
    if (s.name() != schema) continue;
    for (const std::string& uri : s.AttributeUris()) {
      if (uri != predicate) {
        other = uri;
        break;
      }
    }
  }
  return ConjunctiveQuery(
      {"x", "v"},
      {pattern, TriplePattern(Term::Var("x"), Term::Uri(other), Term::Var("v"))});
}

void RunProbes(const ProbeInputs& in, MetricMap* layer) {
  GridVineNetwork& net = *in.net;
  MetricMap& l = *layer;
  std::map<std::string, size_t> owners;
  size_t sink = 0;

  std::vector<double> select_us;
  std::vector<double> sketch_us;
  double rows = 0;
  std::set<const TripleStore*> sketched;
  for (const TriplePattern& p : in.patterns) {
    const TripleStore* store = StoreFor(net, p, &owners);
    if (store == nullptr) continue;
    select_us.push_back(TimeUs([&] { sink += store->Select(p).size(); }));
    rows += double(store->Select(p).size());
    if (sketched.insert(store).second) {
      sketch_us.push_back(
          TimeUs([&] { sink += StoreSketch::Build(*store).total_rows(); }));
    }
  }
  const Tail select_tail = TailOf(select_us);
  l["store.select_us_p50"] = Median(select_us);
  l["store.select_us_tail"] = select_tail.value;
  l["store.rows_per_select"] =
      select_us.empty() ? 0 : rows / double(select_us.size());
  l["query.stats.sketch_us"] = Median(sketch_us);

  std::vector<double> join_us;
  std::vector<double> plan_us;
  for (const ConjunctiveQuery& q : in.conjunctive) {
    plan_us.push_back(TimeUs([&] { sink += PlanPhysical(q).Order().size(); }));
    if (q.patterns().size() < 2) continue;
    const TripleStore* left = StoreFor(net, q.patterns()[0], &owners);
    const TripleStore* right = StoreFor(net, q.patterns()[1], &owners);
    if (left == nullptr || right == nullptr) continue;
    const auto lrows = left->MatchPattern(q.patterns()[0]);
    const auto rrows = right->MatchPattern(q.patterns()[1]);
    join_us.push_back(
        TimeUs([&] { sink += TripleStore::Join(lrows, rrows).size(); }));
  }
  l["store.join_us_p50"] = Median(join_us);
  l["query.plan_us"] = Median(plan_us);

  // A workload without self-organization of its own gets one probe round
  // over its deployment, so the layer's round time is measured everywhere.
  const MappingGraph* graph = in.graph;
  std::unique_ptr<SelfOrganizer> organizer;
  if (graph == nullptr) {
    SelfOrganizer::Options opts;
    opts.domain = in.domain;
    organizer = std::make_unique<SelfOrganizer>(&net, opts);
    for (const auto& [schema, owner] : in.schema_owners) {
      organizer->RegisterSchemaOwner(schema, owner);
    }
    const auto t0 = Clock::now();
    const SelfOrganizer::RoundReport report = organizer->RunRound();
    const double round_s = SecondsSince(t0);
    l["selforg.round_s_p50"] = round_s;
    l["selforg.round_s_tail"] = round_s;
    l["selforg.mappings_created"] = double(report.mappings_created);
    l["selforg.mappings_deprecated"] = double(report.mappings_deprecated);
    l["selforg.stale_deprecated"] = double(report.mappings_stale_deprecated);
    l["selforg.bp_messages"] = double(report.bp_messages);
    l["selforg.kept_ratio"] =
        report.mappings_created > 0
            ? double(report.active_mappings) / double(report.mappings_created)
            : 0;
    graph = &organizer->graph_view();
  }

  std::vector<double> expand_us;
  for (const TriplePatternQuery& q : in.reformulate) {
    expand_us.push_back(TimeUs(
        [&] { sink += ExpandQuery(q, *graph, in.max_hops).size(); }));
  }
  l["query.reformulation.expand_us"] = Median(expand_us);
  probe_sink = sink;
}

}  // namespace gvbench
