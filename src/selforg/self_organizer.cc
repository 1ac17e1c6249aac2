#include "selforg/self_organizer.h"

#include <algorithm>

#include "common/logging.h"
#include "selforg/connectivity.h"

namespace gridvine {

namespace {

/// Object values (and subjects) sampled per attribute for the set-distance
/// measure and the shared-reference count (queries the live network).
constexpr size_t kValueSampleLimit = 64;

/// Vector size for the matcher's precomputed-embedding channel (built
/// locally from sampled values; only used while matcher.embedding_weight
/// > 0).
constexpr int kEmbeddingDim = 64;

}  // namespace

SelfOrganizer::SelfOrganizer(GridVineNetwork* net, Options options)
    : net_(net),
      options_(options),
      rng_(options.seed),
      inc_assessor_(IncrementalAssessor::Options{.assess = options.assessor}) {
  inc_assessor_.Attach(&view_);
}

void SelfOrganizer::RegisterSchemaOwner(const std::string& schema,
                                        size_t peer_idx) {
  owners_[schema] = peer_idx;
}

size_t SelfOrganizer::OwnerOf(const std::string& schema) const {
  auto it = owners_.find(schema);
  return it == owners_.end() ? 0 : it->second;
}

MappingGraph SelfOrganizer::BuildGraphView() {
  MappingGraph graph;
  for (const auto& [schema, owner] : owners_) {
    graph.AddSchema(schema);
    auto mappings = net_->FetchMappingsFor(owner, schema);
    if (!mappings.ok()) continue;
    for (const auto& m : *mappings) graph.AddMapping(m);
  }
  return graph;
}

const MappingGraph& SelfOrganizer::SyncGraphView() {
  for (const auto& [schema, owner] : owners_) {
    view_.AddSchema(schema);
    auto mappings = net_->FetchMappingsFor(owner, schema);
    if (!mappings.ok()) continue;  // owner unreachable: keep the stale view
    for (const auto& m : *mappings) view_.AddMapping(m);
  }
  return view_;
}

Status SelfOrganizer::PublishAllDegrees() {
  SyncGraphView();
  return PublishChangedDegrees();
}

Status SelfOrganizer::PublishChangedDegrees() {
  Status first_error = Status::OK();
  for (const auto& [schema, owner] : owners_) {
    const std::pair<int, int> degrees(view_.InDegree(schema),
                                      view_.OutDegree(schema));
    auto it = published_degrees_.find(schema);
    if (it != published_degrees_.end() && it->second == degrees) continue;
    Status s = net_->PublishDegree(owner, options_.domain, schema,
                                   degrees.first, degrees.second);
    if (s.ok()) {
      published_degrees_[schema] = degrees;
    } else {
      // The record may or may not have landed: publish again next time.
      published_degrees_.erase(schema);
      if (first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

Result<double> SelfOrganizer::ComputeIndicator() {
  // Any owner can read the registry: try each in turn (peer 0 when none is
  // registered) until one read succeeds, so one unreachable owner does not
  // turn the indicator into a failed read.
  std::vector<size_t> readers;
  for (const auto& [schema, owner] : owners_) {
    if (std::find(readers.begin(), readers.end(), owner) == readers.end()) {
      readers.push_back(owner);
    }
  }
  if (readers.empty()) readers.push_back(0);
  auto records = net_->FetchDomainDegrees(readers.front(), options_.domain);
  for (size_t i = 1; i < readers.size() && !records.ok(); ++i) {
    records = net_->FetchDomainDegrees(readers[i], options_.domain);
  }
  if (!records.ok()) return records.status();
  if (records->empty()) {
    return Status::NotFound("connectivity registry empty for domain " +
                            options_.domain);
  }
  std::vector<std::pair<int, int>> degrees;
  degrees.reserve(records->size());
  for (const auto& rec : *records) {
    degrees.emplace_back(rec.in_degree, rec.out_degree);
  }
  return ConnectivityIndicator(degrees);
}

AttributeMatcher::ValueSets SelfOrganizer::SampleValueSets(
    const Schema& schema) {
  AttributeMatcher::ValueSets sets;
  size_t issuer = OwnerOf(schema.name());
  for (const auto& attr : schema.AttributeUris()) {
    TriplePatternQuery q(
        "o", TriplePattern(Term::Var("s"), Term::Uri(attr), Term::Var("o")));
    auto res = net_->SearchFor(issuer, q);
    if (!res.status.ok()) continue;
    std::set<std::string>& values = sets[attr];
    for (const auto& item : res.items) {
      if (values.size() >= kValueSampleLimit) break;
      values.insert(item.value.value());
    }
  }
  return sets;
}

std::set<std::string> SelfOrganizer::SampleSubjects(const Schema& schema) {
  std::set<std::string> subjects;
  size_t issuer = OwnerOf(schema.name());
  for (const auto& attr : schema.AttributeUris()) {
    TriplePatternQuery q(
        "s", TriplePattern(Term::Var("s"), Term::Uri(attr), Term::Var("o")));
    auto res = net_->SearchFor(issuer, q);
    if (!res.status.ok()) continue;
    for (const auto& item : res.items) {
      if (subjects.size() >= kValueSampleLimit) break;
      subjects.insert(item.value.value());
    }
  }
  return subjects;
}

Result<const Schema*> SelfOrganizer::SchemaOf(RoundSnapshot* round,
                                              const std::string& name) {
  auto it = round->schemas.find(name);
  if (it == round->schemas.end()) {
    auto schema = net_->FetchSchema(OwnerOf(name), name);
    if (!schema.ok()) return schema.status();
    it = round->schemas.emplace(name, std::move(schema).value()).first;
  }
  return &it->second;
}

const AttributeMatcher::ValueSets& SelfOrganizer::ValueSetsOf(
    RoundSnapshot* round, const Schema& schema) {
  auto [it, fresh] = round->value_sets.try_emplace(schema.name());
  if (fresh) it->second = SampleValueSets(schema);
  return it->second;
}

std::vector<std::pair<std::string, std::string>>
SelfOrganizer::SelectCandidatePairs(const MappingGraph& graph, int count) {
  RoundSnapshot round;
  return SelectCandidatePairs(graph, count, &round);
}

std::vector<std::pair<std::string, std::string>>
SelfOrganizer::SelectCandidatePairs(const MappingGraph& graph, int count,
                                    RoundSnapshot* round) {
  // Instance evidence: schemas sharing subject references are describing the
  // same entities (the paper's "shared references to the same protein
  // sequence"), making them prime mapping candidates.
  std::map<std::string, std::set<std::string>> subjects;
  for (const auto& [name, owner] : owners_) {
    auto schema = SchemaOf(round, name);
    if (!schema.ok()) continue;
    subjects[name] = SampleSubjects(**schema);
  }

  struct Candidate {
    std::string a, b;
    size_t shared;
  };
  std::vector<Candidate> candidates;
  for (auto ia = subjects.begin(); ia != subjects.end(); ++ia) {
    for (auto ib = std::next(ia); ib != subjects.end(); ++ib) {
      const std::string& a = ia->first;
      const std::string& b = ib->first;
      // Skip pairs already linked by an active mapping in either direction.
      bool linked = false;
      for (const auto& m : graph.MappingsFrom(a)) {
        if (m.target_schema() == b) linked = true;
      }
      for (const auto& m : graph.MappingsFrom(b)) {
        if (m.target_schema() == a) linked = true;
      }
      if (linked) continue;
      size_t shared = 0;
      for (const auto& s : subjects[a]) shared += subjects[b].count(s);
      candidates.push_back(Candidate{a, b, shared});
    }
  }
  // Highest shared-reference count first; shuffle equals for tie-breaking.
  rng_.Shuffle(&candidates);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.shared > y.shared;
                   });
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& c : candidates) {
    if (int(out.size()) >= count) break;
    out.emplace_back(c.a, c.b);
  }
  return out;
}

Result<SchemaMapping> SelfOrganizer::CreateMapping(const std::string& source,
                                                   const std::string& target) {
  RoundSnapshot round;
  return CreateMapping(source, target, &round);
}

Result<SchemaMapping> SelfOrganizer::CreateMapping(const std::string& source,
                                                   const std::string& target,
                                                   RoundSnapshot* round) {
  GV_ASSIGN_OR_RETURN(const Schema* src, SchemaOf(round, source));
  GV_ASSIGN_OR_RETURN(const Schema* dst, SchemaOf(round, target));

  AttributeMatcher matcher(options_.matcher);
  const AttributeMatcher::ValueSets& src_values = ValueSetsOf(round, *src);
  const AttributeMatcher::ValueSets& dst_values = ValueSetsOf(round, *dst);
  // Optional cosine channel: vectors are derived locally from the names and
  // the value samples already fetched — no extra network traffic.
  EmbeddingTable src_emb, dst_emb;
  if (options_.matcher.embedding_weight > 0) {
    for (const auto& attr : src->AttributeUris()) {
      auto vit = src_values.find(attr);
      src_emb[attr] = EmbedAttribute(
          Schema::LocalOfUri(attr),
          vit != src_values.end() ? vit->second : std::set<std::string>{},
          kEmbeddingDim);
    }
    for (const auto& attr : dst->AttributeUris()) {
      auto vit = dst_values.find(attr);
      dst_emb[attr] = EmbedAttribute(
          Schema::LocalOfUri(attr),
          vit != dst_values.end() ? vit->second : std::set<std::string>{},
          kEmbeddingDim);
    }
    matcher.SetEmbeddings(&src_emb, &dst_emb);
  }
  auto correspondences = matcher.Match(*src, *dst, src_values, dst_values);
  if (correspondences.empty()) {
    return Status::NotFound("no attribute correspondences found between " +
                            source + " and " + target);
  }
  SchemaMapping m("auto-" + source + "-" + target + "-" +
                      std::to_string(next_mapping_seq_++),
                  source, target);
  m.set_provenance(MappingProvenance::kAutomatic);
  m.set_bidirectional(true);  // attribute alignments are symmetric evidence
  double score_sum = 0;
  for (const auto& c : correspondences) {
    GV_RETURN_NOT_OK(m.AddCorrespondence(c.source_attr_uri, c.target_attr_uri));
    score_sum += c.score;
  }
  m.set_confidence(score_sum / double(correspondences.size()));
  GV_RETURN_NOT_OK(net_->InsertMapping(OwnerOf(source), m));
  GV_CLOG("selforg", Info) << "created mapping " << m.id() << " ("
                           << correspondences.size()
                           << " correspondences, confidence "
                           << m.confidence() << ")";
  return m;
}

bool SelfOrganizer::PushMappingUpdate(const SchemaMapping& updated) {
  if (!net_->UpsertMapping(OwnerOf(updated.source_schema()), updated).ok()) {
    return false;
  }
  // Mirror into the view now so the assessor reacts this round instead of
  // at the next sync (the next sync then sees identical content: no-op).
  view_.AddMapping(updated);
  return true;
}

std::vector<std::string> SelfOrganizer::RepairStaleMappings() {
  RoundSnapshot round;
  return RepairStaleMappings(&round);
}

std::vector<std::string> SelfOrganizer::RepairStaleMappings(
    RoundSnapshot* round) {
  // Current schema definitions, as stored (evolution arrives via
  // UpsertSchema, so a fetch made this round reflects the latest state).
  std::map<std::string, std::set<std::string>> attrs;
  for (const auto& [name, owner] : owners_) {
    auto schema = SchemaOf(round, name);
    if (!schema.ok()) continue;  // unreachable: cannot judge, skip
    auto& set = attrs[name];
    for (const auto& uri : (*schema)->AttributeUris()) set.insert(uri);
  }

  // Active mappings whose correspondences dangle (either endpoint renamed
  // away) are no longer agreements about the current schemas.
  std::vector<std::string> stale;
  std::set<std::string> seen;
  for (const auto& schema : view_.Schemas()) {
    for (const auto& mv : view_.MappingsFrom(schema)) {
      std::string id = mv.id();
      if (id.size() > 4 && id.substr(id.size() - 4) == "~rev") {
        id = id.substr(0, id.size() - 4);
      }
      if (!seen.insert(id).second) continue;
      auto m = view_.Get(id);
      if (!m.ok() || m->deprecated()) continue;
      auto sit = attrs.find(m->source_schema());
      auto tit = attrs.find(m->target_schema());
      bool dangling = false;
      for (const auto& [from, to] : m->correspondences()) {
        if (sit != attrs.end() && !sit->second.count(from)) dangling = true;
        if (tit != attrs.end() && !tit->second.count(to)) dangling = true;
        if (dangling) break;
      }
      if (!dangling) continue;
      SchemaMapping deprecated = *m;
      deprecated.set_deprecated(true);
      if (PushMappingUpdate(deprecated)) {
        stale.push_back(id);
        GV_CLOG("selforg", Info)
            << "deprecated stale mapping " << id << " (schema evolved)";
      }
    }
  }
  return stale;
}

SelfOrganizer::RoundReport SelfOrganizer::RunRound() {
  RoundReport report;
  ++rounds_run_;
  // The round's one sync. From here on the view stays current because every
  // write the round makes is mirrored into it (PushMappingUpdate, and the
  // created mappings below); `round` holds the round's schema fetches and
  // samples.
  SyncGraphView();
  RoundSnapshot round;

  // Step 0 (agreement maintenance): schemas may have evolved since the last
  // round; mappings with dangling correspondences are deprecated so the
  // creation step can re-derive them against the current definitions.
  report.stale_deprecated_ids = RepairStaleMappings(&round);
  report.mappings_stale_deprecated = report.stale_deprecated_ids.size();
  total_stale_deprecated_ += report.mappings_stale_deprecated;

  // Step 1+2: publish the degrees that changed, read the indicator back from
  // the registry.
  PublishChangedDegrees().ok();
  auto ci = ComputeIndicator();
  report.ci_before = ci.ok() ? *ci : 0.0;
  GV_CLOG("selforg", Debug) << "round start: ci=" << report.ci_before;

  // Step 3: create mappings while the mediation layer is under-connected.
  // ci < 0 is the paper's criterion; two cases the degree-distribution
  // heuristic cannot flag are checked against the graph view directly: a
  // schema with no mappings at all (an all-zero degree sequence gives
  // ci = 0), and a graph fragmented into several well-connected components
  // (each side keeps healthy degrees — the post-schema-evolution shape,
  // after agreement maintenance severs the stale edges).
  bool has_isolated_schema = false;
  for (const auto& schema : view_.Schemas()) {
    if (view_.InDegree(schema) + view_.OutDegree(schema) == 0) {
      has_isolated_schema = true;
      break;
    }
  }
  bool fragmented = view_.schema_count() > 1 && !view_.IsStronglyConnected();
  if (!ci.ok() || *ci < 0 || has_isolated_schema || fragmented) {
    for (const auto& [a, b] :
         SelectCandidatePairs(view_, options_.creations_per_round, &round)) {
      auto created = CreateMapping(a, b, &round);
      if (created.ok()) {
        ++report.mappings_created;
        report.created_ids.push_back(created->id());
        // Feed the new edge into the maintained factor graph immediately.
        view_.AddMapping(*created);
      }
    }
    total_created_ += report.mappings_created;
  }

  // Step 4: assess automatic mappings; deprecate the bad ones. Only the
  // dirty region of the maintained factor graph re-converges (capped).
  IncrementalAssessor::UpdateStats stats = inc_assessor_.Update();
  report.bp_messages = stats.messages;
  report.bp_converged = stats.converged;
  report.bp_factors = inc_assessor_.factor_count();
  for (const auto& [id, posterior] : inc_assessor_.Posteriors()) {
    if (posterior >= kDeprecateBelow) continue;
    auto m = view_.Get(id);
    if (!m.ok() || m->deprecated()) continue;
    SchemaMapping deprecated = *m;
    deprecated.set_deprecated(true);
    deprecated.set_confidence(posterior);
    if (PushMappingUpdate(deprecated)) {
      ++report.mappings_deprecated;
      report.deprecated_ids.push_back(id);
      GV_CLOG("selforg", Info)
          << "deprecated mapping " << id << " (posterior " << posterior << ")";
    }
  }
  total_deprecated_ += report.mappings_deprecated;

  // Refresh the registry and report the post-round state.
  PublishChangedDegrees().ok();
  auto ci_after = ComputeIndicator();
  report.ci_after = ci_after.ok() ? *ci_after : 0.0;
  report.scc_fraction_after = view_.LargestSccFraction();
  report.active_mappings = view_.active_mapping_count();
  GV_CLOG("selforg", Debug) << "round end: ci=" << report.ci_after
                            << " created=" << report.mappings_created
                            << " deprecated=" << report.mappings_deprecated
                            << " active=" << report.active_mappings;
  return report;
}

std::vector<SelfOrganizer::RoundReport> SelfOrganizer::RunContinuous(
    int rounds, SimTime interval) {
  std::vector<RoundReport> reports;
  reports.reserve(size_t(rounds > 0 ? rounds : 0));
  for (int r = 0; r < rounds; ++r) {
    // Let the deployment live for a slice (churn, faults, foreground
    // queries), then organize synchronously from outside the event loop —
    // the sync wrappers pump the simulator themselves, so a round must not
    // run from inside a scheduled event.
    net_->RunUntil(net_->Now() + interval);
    reports.push_back(RunRound());
  }
  return reports;
}

void SelfOrganizer::PublishMetrics(MetricsRegistry* registry) const {
  registry->Counter("gv.selforg.rounds") += rounds_run_;
  registry->Counter("gv.selforg.mappings_created") += total_created_;
  registry->Counter("gv.selforg.mappings_deprecated") += total_deprecated_;
  registry->Counter("gv.selforg.mappings_stale_deprecated") +=
      total_stale_deprecated_;
  registry->Counter("gv.selforg.bp.messages") +=
      inc_assessor_.lifetime_messages();
  registry->Gauge("gv.selforg.bp.factors") =
      double(inc_assessor_.factor_count());
  registry->Gauge("gv.selforg.bp.variables") =
      double(inc_assessor_.variable_count());
  registry->Gauge("gv.selforg.bp.dirty") = double(inc_assessor_.dirty_count());
  registry->Gauge("gv.selforg.active_mappings") =
      double(view_.active_mapping_count());
}

}  // namespace gridvine
