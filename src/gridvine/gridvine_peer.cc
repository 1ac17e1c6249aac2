#include "gridvine/gridvine_peer.h"

#include <algorithm>
#include <charconv>
#include <memory>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/mem_estimate.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "gridvine/query_frontend.h"
#include "query/exec/bind.h"
#include "query/planner.h"
#include "query/reformulation.h"
#include "store/binding_codec.h"

namespace gridvine {

namespace {

/// Cross-query batching: a region's buffer flushes this many simulated
/// seconds after its first request, or as soon as it holds kBatchMaxItems.
constexpr SimTime kBatchWindow = 0.005;
constexpr size_t kBatchMaxItems = 32;

/// How long planning waits for outstanding sketch fetches before degrading
/// the unanswered regions to the greedy rank. Fetches are single-attempt: a
/// lost record costs accuracy, never correctness.
constexpr SimTime kStatsFetchTimeout = 1.0;

/// Parses all of `field` as a decimal number; false on an empty field,
/// trailing bytes or overflow.
template <typename T>
bool ParseWhole(const std::string& field, T* out) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Record-kind tags: every record in overlay storage starts with one. Each
/// record fetch passes its tag as the retrieve's value prefix, so the
/// responder ships only that kind, not the others sharing the key; the
/// requester still checks the tag, since DHT records are untrusted bytes.
constexpr std::string_view kSchemaTag = "schema|";
constexpr std::string_view kMappingTag = "mapping|";
constexpr std::string_view kDegreeTag = "conn|";

/// OverlayRequest's operation for a Retrieve.
constexpr std::optional<UpdateOp> kRetrieve = std::nullopt;

/// Aggregates N update acknowledgements into one status callback: the first
/// error wins; OK once all arrive.
class AckAggregator : public std::enable_shared_from_this<AckAggregator> {
 public:
  AckAggregator(int expected, GridVinePeer::StatusCallback cb)
      : remaining_(expected), cb_(std::move(cb)) {}

  PGridPeer::ReplyCallback MakeCallback() {
    auto self = shared_from_this();
    return [self](Result<PGridPeer::Reply> r) {
      if (!r.ok() && self->first_error_.ok()) self->first_error_ = r.status();
      if (--self->remaining_ == 0) {
        self->cb_(self->first_error_);
      }
    };
  }

  /// Creates an aggregator kept alive by its own callbacks: ownership lives
  /// only in the callback captures, so it is released once every callback
  /// has fired or been dropped (no self-referencing cycle).
  static std::shared_ptr<AckAggregator> Create(
      int expected, GridVinePeer::StatusCallback cb) {
    return std::make_shared<AckAggregator>(expected, std::move(cb));
  }

 private:
  int remaining_;
  Status first_error_;
  GridVinePeer::StatusCallback cb_;
};

}  // namespace

GridVinePeer::GridVinePeer(Simulator* sim, Network* network,
                           uint64_t overlay_seed, uint64_t jitter_seed,
                           Options options,
                           PGridPeer::Options overlay_options)
    : sim_(sim),
      network_(network),
      rng_(jitter_seed),
      options_(options),
      hash_(options.key_depth) {
  overlay_options.key_depth = options.key_depth;
  overlay_ = std::make_unique<PGridPeer>(sim, network, overlay_seed,
                                         overlay_options);
  overlay_->SetExtensionHandler(
      [this](NodeId origin, std::shared_ptr<const MessageBody> payload,
             int hops) { OnExtensionMessage(origin, std::move(payload), hops); });
  overlay_->SetStorageKeeper(
      [this](UpdateOp op, const Key& key, const std::string& value) {
        return KeepTriple(op, key, value);
      });
  if (options_.cache.enabled) {
    cache_ = std::make_unique<ExtentCache>();
  }
  if (options_.stats.enabled) {
    StatsCache::Options sopts;
    sopts.ttl = options_.stats.ttl;
    stats_cache_ = std::make_unique<StatsCache>(sopts);
  }
}

GridVinePeer::~GridVinePeer() = default;

QueryFrontend* GridVinePeer::frontend() {
  if (frontend_ == nullptr) {
    frontend_ = std::make_unique<QueryFrontend>(sim_, this);
  }
  return frontend_.get();
}

// --- DB_p ----------------------------------------------------------------------

const TripleStore& GridVinePeer::local_db() const {
  static const TripleStore kEmpty;
  return local_db_ ? *local_db_ : kEmpty;
}

TripleStore& GridVinePeer::MutableLocalDb() {
  if (local_db_ == nullptr) local_db_ = std::make_unique<TripleStore>();
  return *local_db_;
}

bool GridVinePeer::KeepTriple(UpdateOp op, const Key& key,
                              const std::string& value) {
  auto triple = Triple::Parse(value);
  if (!triple.ok()) return false;  // a schema, mapping or degree record
  TripleStore::Tags tags = 0;
  for (int pos = 0; pos < 3; ++pos) {
    if (KeyFor(triple->at(TriplePos(pos)).value()) == key) tags |= 1 << pos;
  }
  if (tags == 0) return false;  // filed under a foreign key
  if (op == UpdateOp::kInsert) {
    MutableLocalDb().Tag(*triple, tags).ok();
  } else if (local_db_ != nullptr) {
    local_db_->Untag(*triple, tags);
  }
  return true;
}

// --- Remembered responders -----------------------------------------------------

void GridVinePeer::OverlayRequest(std::optional<UpdateOp> op, const Key& key,
                                  const std::string& value,
                                  PGridPeer::ReplyCallback cb) {
  NodeId first_hop = kInvalidNode;
  if (remembered_ != nullptr && !overlay_->IsResponsibleFor(key)) {
    auto it = remembered_->peers.find(key);
    if (it != remembered_->peers.end()) {
      first_hop = it->second;
      ++remembered_->first_hops;
    }
  }
  auto done = [this, key, first_hop,
               cb = std::move(cb)](Result<PGridPeer::Reply> r) {
    Remember(key, first_hop, r);
    cb(std::move(r));
  };
  if (!op) {
    overlay_->Retrieve(key, std::move(done), value, first_hop);
  } else if (*op == UpdateOp::kInsert) {
    overlay_->Update(key, value, std::move(done), first_hop);
  } else {
    overlay_->Remove(key, value, std::move(done), first_hop);
  }
}

void GridVinePeer::Remember(const Key& key, NodeId first_hop,
                            const Result<PGridPeer::Reply>& reply) {
  if (first_hop != kInvalidNode &&
      !(reply.ok() && reply->responder == first_hop && reply->hops == 1)) {
    ++remembered_->misses;
  }
  if (!reply.ok()) {
    if (remembered_ != nullptr) remembered_->peers.erase(key);
    return;
  }
  if (reply->responder == id()) return;  // answered here: nothing to learn
  if (remembered_ == nullptr) {
    remembered_ = std::make_unique<RememberedResponders>();
  }
  auto& peers = remembered_->peers;
  if (peers.size() >= kMaxRemembered && !peers.contains(key)) {
    peers.erase(peers.begin());
  }
  peers.insert_or_assign(key, reply->responder);
}

// --- Mediation-layer updates ---------------------------------------------------

void GridVinePeer::InsertTriple(const Triple& triple, StatusCallback cb) {
  InsertTriples({triple}, std::move(cb));
}

void GridVinePeer::InsertTriples(const std::vector<Triple>& triples,
                                 StatusCallback cb) {
  if (triples.empty()) {
    cb(Status::OK());
    return;
  }
  for (const Triple& t : triples) {
    Status valid = t.Validate();
    if (!valid.ok()) {
      cb(valid);
      return;
    }
  }
  auto agg = AckAggregator::Create(int(triples.size()) * 3, std::move(cb));
  for (const Triple& t : triples) {
    // Update(t) = Update(Hash(s), t), Update(Hash(p), t), Update(Hash(o), t).
    std::string value = t.Serialize();
    OverlayRequest(UpdateOp::kInsert, KeyFor(t.subject().value()), value,
                   agg->MakeCallback());
    OverlayRequest(UpdateOp::kInsert, KeyFor(t.predicate().value()), value,
                   agg->MakeCallback());
    OverlayRequest(UpdateOp::kInsert, KeyFor(t.object().value()), value,
                   agg->MakeCallback());
  }
}

void GridVinePeer::RemoveTriple(const Triple& triple, StatusCallback cb) {
  std::string value = triple.Serialize();
  auto agg = AckAggregator::Create(3, std::move(cb));
  OverlayRequest(UpdateOp::kDelete, KeyFor(triple.subject().value()), value,
                 agg->MakeCallback());
  OverlayRequest(UpdateOp::kDelete, KeyFor(triple.predicate().value()), value,
                 agg->MakeCallback());
  OverlayRequest(UpdateOp::kDelete, KeyFor(triple.object().value()), value,
                 agg->MakeCallback());
}

void GridVinePeer::InsertSchema(const Schema& schema, StatusCallback cb) {
  Status valid = schema.Validate();
  if (!valid.ok()) {
    cb(valid);
    return;
  }
  OverlayRequest(UpdateOp::kInsert, KeyFor(schema.name()), schema.Serialize(),
                 [cb](Result<PGridPeer::Reply> r) {
                   cb(r.ok() ? Status::OK() : r.status());
                 });
}

void GridVinePeer::UpsertSchema(const Schema& schema, StatusCallback cb) {
  Status valid = schema.Validate();
  if (!valid.ok()) {
    cb(valid);
    return;
  }
  // Remove stale serializations of this schema name first: FetchSchema
  // returns the first matching record, so an evolved definition inserted
  // alongside the old one would never be seen.
  std::string fresh = schema.Serialize();
  OverlayRequest(
      kRetrieve, KeyFor(schema.name()), std::string(kSchemaTag),
      [this, schema, fresh, cb](Result<PGridPeer::Reply> r) {
        std::vector<std::string> stale;
        if (r.ok()) {
          for (const auto& value : r->values) {
            if (!StartsWith(value, kSchemaTag)) continue;
            auto parsed = Schema::Parse(value);
            if (parsed.ok() && parsed->name() == schema.name() &&
                value != fresh) {
              stale.push_back(value);
            }
          }
        }
        auto agg = AckAggregator::Create(int(stale.size()) + 1, cb);
        for (const auto& value : stale) {
          OverlayRequest(UpdateOp::kDelete, KeyFor(schema.name()), value,
                         agg->MakeCallback());
        }
        InsertSchema(schema, [agg](Status s) {
          agg->MakeCallback()(
              s.ok() ? Result<PGridPeer::Reply>(PGridPeer::Reply{})
                     : Result<PGridPeer::Reply>(s));
        });
      });
}

namespace {

/// A mapping must be discoverable from every schema that can traverse it:
/// bidirectional equivalences reformulate both ways, and subsumptions are
/// always traversable backwards (the sound specialization direction), so
/// both kinds are indexed under the target schema's key space too.
bool StoredAtBothKeySpaces(const SchemaMapping& mapping) {
  return mapping.bidirectional() ||
         mapping.type() == MappingType::kSubsumption;
}

}  // namespace

void GridVinePeer::InsertMapping(const SchemaMapping& mapping,
                                 StatusCallback cb) {
  std::string value = mapping.Serialize();
  int copies = StoredAtBothKeySpaces(mapping) ? 2 : 1;
  auto agg = AckAggregator::Create(copies, std::move(cb));
  OverlayRequest(UpdateOp::kInsert, KeyFor(mapping.source_schema()), value,
                 agg->MakeCallback());
  if (StoredAtBothKeySpaces(mapping)) {
    OverlayRequest(UpdateOp::kInsert, KeyFor(mapping.target_schema()), value,
                   agg->MakeCallback());
  }
}

void GridVinePeer::UpsertMapping(const SchemaMapping& mapping,
                                 StatusCallback cb) {
  // Fetch current records at the source key space, remove any with the same
  // id, then insert the new state. (Bidirectional copies are refreshed too.)
  FetchMappingsFor(
      mapping.source_schema(),
      [this, mapping, cb](Result<std::vector<SchemaMapping>> existing) {
        std::vector<std::string> stale;
        if (existing.ok()) {
          for (const auto& m : *existing) {
            if (m.id() == mapping.id() &&
                m.Serialize() != mapping.Serialize()) {
              stale.push_back(m.Serialize());
            }
          }
        }
        int ops = int(stale.size()) * (StoredAtBothKeySpaces(mapping) ? 2 : 1);
        auto agg = AckAggregator::Create(ops + 1, cb);
        for (const auto& value : stale) {
          OverlayRequest(UpdateOp::kDelete, KeyFor(mapping.source_schema()),
                         value, agg->MakeCallback());
          if (StoredAtBothKeySpaces(mapping)) {
            OverlayRequest(UpdateOp::kDelete,
                           KeyFor(mapping.target_schema()), value,
                           agg->MakeCallback());
          }
        }
        InsertMapping(mapping, [agg](Status s) {
          agg->MakeCallback()(
              s.ok() ? Result<PGridPeer::Reply>(PGridPeer::Reply{})
                     : Result<PGridPeer::Reply>(s));
        });
      });
}

// --- Mediation-layer lookups ----------------------------------------------------

void GridVinePeer::FetchSchema(const std::string& name,
                               std::function<void(Result<Schema>)> cb) {
  OverlayRequest(
      kRetrieve, KeyFor(name), std::string(kSchemaTag),
      [name, cb](Result<PGridPeer::Reply> r) {
        if (!r.ok()) {
          cb(r.status());
          return;
        }
        for (const auto& value : r->values) {
          if (!StartsWith(value, kSchemaTag)) continue;
          auto schema = Schema::Parse(value);
          if (schema.ok() && schema->name() == name) {
            cb(std::move(schema));
            return;
          }
        }
        cb(Status::NotFound("schema not in network: " + name));
      });
}

void GridVinePeer::FetchMappingsFor(
    const std::string& schema,
    std::function<void(Result<std::vector<SchemaMapping>>)> cb) {
  OverlayRequest(
      kRetrieve, KeyFor(schema), std::string(kMappingTag),
      [cb](Result<PGridPeer::Reply> r) {
        if (!r.ok()) {
          cb(r.status());
          return;
        }
        std::vector<SchemaMapping> mappings;
        for (const auto& value : r->values) {
          if (!StartsWith(value, kMappingTag)) continue;
          auto m = SchemaMapping::Parse(value);
          if (m.ok()) mappings.push_back(std::move(m).value());
        }
        cb(std::move(mappings));
      });
}

// --- Connectivity registry ------------------------------------------------------

void GridVinePeer::PublishDegree(const std::string& domain,
                                 const std::string& schema, int in_degree,
                                 int out_degree, StatusCallback cb) {
  Status valid = Schema::ValidateName(schema);
  if (valid.ok() && (in_degree < 0 || out_degree < 0)) {
    valid = Status::InvalidArgument("negative degree for schema " + schema);
  }
  if (!valid.ok()) {
    cb(valid);
    return;
  }
  std::string record = std::string(kDegreeTag) + schema + "|" +
                       std::to_string(in_degree) + "|" +
                       std::to_string(out_degree) + "|" +
                       std::to_string(next_version_++);
  auto prev_key = std::make_pair(domain, schema);
  auto it = published_degrees_.find(prev_key);
  int ops = it != published_degrees_.end() ? 2 : 1;
  auto agg = AckAggregator::Create(ops, std::move(cb));
  if (it != published_degrees_.end()) {
    OverlayRequest(UpdateOp::kDelete, KeyFor(domain), it->second,
                   agg->MakeCallback());
  }
  OverlayRequest(UpdateOp::kInsert, KeyFor(domain), record,
                 agg->MakeCallback());
  published_degrees_[prev_key] = record;
}

void GridVinePeer::FetchDomainDegrees(
    const std::string& domain,
    std::function<void(Result<std::vector<DegreeRecord>>)> cb) {
  OverlayRequest(
      kRetrieve, KeyFor(domain), std::string(kDegreeTag),
      [cb](Result<PGridPeer::Reply> r) {
        if (!r.ok()) {
          cb(r.status());
          return;
        }
        // Keep the latest version per schema.
        std::map<std::string, DegreeRecord> latest;
        for (const auto& value : r->values) {
          if (!StartsWith(value, kDegreeTag)) continue;
          auto parts = Split(value, '|');
          if (parts.size() != 5) continue;
          DegreeRecord rec;
          rec.schema = parts[1];
          // Records are untrusted DHT bytes: every field must parse whole,
          // under the rules PublishDegree enforces.
          if (!Schema::ValidateName(rec.schema).ok() ||
              !ParseWhole(parts[2], &rec.in_degree) || rec.in_degree < 0 ||
              !ParseWhole(parts[3], &rec.out_degree) || rec.out_degree < 0 ||
              !ParseWhole(parts[4], &rec.version)) {
            continue;
          }
          auto it = latest.find(rec.schema);
          if (it == latest.end() || it->second.version < rec.version) {
            latest[rec.schema] = rec;
          }
        }
        std::vector<DegreeRecord> out;
        out.reserve(latest.size());
        for (auto& [_, rec] : latest) out.push_back(rec);
        cb(std::move(out));
      });
}

// --- Observability --------------------------------------------------------------

Tracer* GridVinePeer::LiveTracer() const {
  Tracer* tr = network_->tracer();
  return (tr != nullptr && tr->enabled()) ? tr : nullptr;
}

// Picks the span a responder-side marker should attach to. The ambient
// delivery ctx is the request's own flight span only when it belongs to the
// same trace as the ctx carried on the request; then it is the deeper, better
// parent. Otherwise the request was handed over synchronously while some
// unrelated delivery (e.g. the mapping-fetch response that triggered a
// reformulation) was ambient, and the carried ctx is authoritative.
TraceCtx GridVinePeer::ResponderParent(const TraceCtx& carried) const {
  TraceCtx ambient = network_->ambient_ctx();
  if (ambient.valid() &&
      (!carried.valid() || ambient.trace_id == carried.trace_id)) {
    return ambient;
  }
  return carried;
}

void GridVinePeer::PublishMetrics(MetricsRegistry* metrics) const {
  metrics->Counter("gv.queries_issued") += counters_.queries_issued;
  metrics->Counter("gv.queries_answered") += counters_.queries_answered;
  metrics->Counter("gv.reformulations_performed") +=
      counters_.reformulations_performed;
  metrics->Counter("gv.bound_scans_answered") +=
      counters_.bound_scans_answered;
  metrics->Counter("gv.result_rows_sent") += counters_.result_rows_sent;
  metrics->Counter("gv.local_db_triples") += local_db().size();
  metrics->Gauge("gv.pending_queries") += double(pending_queries_.size());
  metrics->Gauge("gv.active_execs") += double(active_execs_.size());
  if (cache_) {
    const ExtentCache::Stats& cs = cache_->stats();
    metrics->Counter("gv.cache.hits") += cs.hits;
    metrics->Counter("gv.cache.misses") += cs.misses;
    metrics->Counter("gv.cache.evictions") += cs.evictions;
    metrics->Counter("gv.cache.invalidations") += cs.invalidations;
    metrics->Counter("gv.cache.negative_hits") += cs.negative_hits;
    metrics->Counter("gv.cache.entries") += cache_->entries();
    metrics->Counter("gv.cache.bytes") += cache_->bytes();
  }
  if (stats_cache_) {
    const StatsCache::Stats& ss = stats_cache_->stats();
    metrics->Counter("gv.stats.hits") += ss.hits;
    metrics->Counter("gv.stats.misses") += ss.misses;
    metrics->Counter("gv.stats.refreshes") += ss.refreshes;
    metrics->Counter("gv.stats.observations") += ss.observations;
    metrics->Counter("gv.stats.entries") += stats_cache_->entries();
  }
  if (stats_cache_ || counters_.stats_served > 0) {
    metrics->Counter("gv.stats.fetches") += counters_.stats_fetches;
    metrics->Counter("gv.stats.served") += counters_.stats_served;
    metrics->Counter("gv.stats.sketch_rebuilds") += counters_.sketch_rebuilds;
  }
  // A peer that never built its frontend reports zeros, so the key set does
  // not depend on which peers served traffic.
  const QueryFrontend::Stats fs =
      frontend_ ? frontend_->stats() : QueryFrontend::Stats{};
  metrics->Counter("gv.frontend.submitted") += fs.submitted;
  metrics->Counter("gv.frontend.completed") += fs.completed;
  metrics->Counter("gv.frontend.shed") += fs.shed;
  metrics->Counter("gv.frontend.max_queue_depth") =
      std::max(metrics->Counter("gv.frontend.max_queue_depth"),
               fs.max_queue_depth);
  metrics->Gauge("gv.frontend.active") += double(fs.active);
  metrics->Gauge("gv.frontend.queued") += double(fs.queued);
  metrics->Counter("gv.batch.items") += counters_.batch_items;
  metrics->Counter("gv.batch.flushes") += counters_.batch_flushes;
  metrics->Counter("gv.batch.answered") += counters_.batches_answered;
  metrics->Counter("gv.remembered_first_hops") +=
      remembered_ ? remembered_->first_hops : 0;
  metrics->Counter("gv.remembered_misses") +=
      remembered_ ? remembered_->misses : 0;
}

// --- Query engine ---------------------------------------------------------------

uint64_t GridVinePeer::StartQuery(
    const TriplePatternQuery& query, const QueryOptions& options,
    std::function<void(PendingQuery&)> on_finish) {
  ++counters_.queries_issued;
  uint64_t qid = (uint64_t(id()) << 32) | next_query_id_++;
  PendingQuery p;
  p.query = query;
  p.options = options;
  p.started = sim_->Now();
  p.on_finish = std::move(on_finish);
  p.visited.insert(query.SchemaName());
  if (Tracer* tr = LiveTracer()) {
    // Parent preference: an explicit caller span (the conjunctive executor's
    // operator), else the ambient delivery ctx, else a fresh trace root.
    TraceCtx parent = options.trace_parent.valid() ? options.trace_parent
                                                   : network_->ambient_ctx();
    p.span = tr->StartSpan("op.search", parent);
    tr->Annotate(p.span, "schema", query.SchemaName());
  }
  pending_queries_.emplace(qid, std::move(p));

  int max_hops =
      options.max_hops >= 0 ? options.max_hops : kMaxReformulationHops;
  SimTime timeout =
      options.timeout > 0 ? options.timeout : options_.query_timeout;

  PendingQuery& pq = pending_queries_.at(qid);
  // One unit for the initial dispatch plus a setup guard: when the origin is
  // itself responsible for the query key, the dispatch can answer
  // synchronously, and without the guard the branch count would hit zero and
  // close the query before IterativeExpand gets to register its mapping fetch.
  pq.outstanding = 2;
  int ttl = options.reformulate &&
                    options.mode == ReformulationMode::kRecursive
                ? max_hops
                : 0;
  DispatchQuery(qid, query, id(), options.mode, ttl, {query.SchemaName()},
                0, 1.0, options.sound_only);

  if (options.reformulate && options.mode == ReformulationMode::kIterative) {
    IterativeExpand(qid, query, {query.SchemaName()}, 0, 0, 1.0);
  }
  auto again = pending_queries_.find(qid);
  if (again != pending_queries_.end() && !again->second.closed) {
    --again->second.outstanding;  // release the setup guard
    MaybeFinishIterative(qid);
  }

  sim_->Schedule(timeout, [this, qid] { FinishQuery(qid); });
  return qid;
}

void GridVinePeer::SearchFor(const TriplePatternQuery& query,
                             const QueryOptions& options, QueryCallback cb) {
  Status valid = query.Validate();
  if (!valid.ok()) {
    QueryResult res;
    res.status = valid;
    cb(std::move(res));
    return;
  }
  std::string var = query.distinguished_var();
  StartQuery(query, options, [this, var, cb](PendingQuery& p) {
    QueryResult res;
    res.status = Status::OK();
    res.schemas_answered = p.schemas_answered.size();
    res.reformulations = p.reformulations;
    res.latency = sim_->Now() - p.started;
    res.first_result_latency = p.first_result;
    res.trace_id = p.span.trace_id;
    // Deduplicate by (schema, value), both interned to compact ids — no
    // per-item string-pair keys; earliest arrival wins. Items keep their
    // first-seen slot, so insertion order (hence the stable sort below) is
    // deterministic across runs and platforms.
    std::unordered_map<std::string, uint32_t> interned;
    auto intern = [&interned](const std::string& s) {
      auto [slot, fresh] =
          interned.emplace(s, static_cast<uint32_t>(interned.size()));
      (void)fresh;
      return slot->second;
    };
    std::unordered_map<uint64_t, size_t> index;
    for (const RowBatch& batch : p.batches) {
      for (const BindingSet& row : batch.rows) {
        auto it = row.find(var);
        if (it == row.end()) continue;
        uint64_t key = (uint64_t(intern(batch.schema)) << 32) |
                       intern(it->second.value());
        auto found = index.find(key);
        if (found != index.end() &&
            res.items[found->second].arrival <= batch.arrival) {
          continue;
        }
        ResultItem item;
        item.value = it->second;
        item.schema = batch.schema;
        item.mapping_path_len = batch.mapping_path_len;
        item.confidence = batch.confidence;
        item.arrival = batch.arrival;
        if (found != index.end()) {
          res.items[found->second] = std::move(item);
        } else {
          index.emplace(key, res.items.size());
          res.items.push_back(std::move(item));
        }
      }
    }
    std::stable_sort(res.items.begin(), res.items.end(),
                     [](const ResultItem& a, const ResultItem& b) {
                       return a.arrival < b.arrival;
                     });
    cb(std::move(res));
  });
}

void GridVinePeer::DispatchQuery(uint64_t qid, const TriplePatternQuery& query,
                                 NodeId reply_to, ReformulationMode mode,
                                 int ttl, std::vector<std::string> visited,
                                 int path_len, double confidence,
                                 bool sound_only) {
  auto routing = query.pattern().RoutingConstant();
  auto range_prefix = query.pattern().ObjectRangePrefix();
  // Routing-policy override (ablation): only the issuer's own dispatch.
  if (reply_to == id()) {
    auto it = pending_queries_.find(qid);
    if (it != pending_queries_.end() &&
        it->second.options.routing_position.has_value() &&
        query.pattern().IsExactConstant(
            *it->second.options.routing_position)) {
      routing = it->second.options.routing_position;
    }
  }
  if (!routing.has_value() && !range_prefix.has_value()) {
    // Cannot route an all-variable pattern: the branch dies silently; the
    // origin's timeout (or outstanding counter) handles it.
    auto it = pending_queries_.find(qid);
    if (it != pending_queries_.end() && reply_to == id()) {
      --it->second.outstanding;
      MaybeFinishIterative(qid);
    }
    return;
  }
  auto req = std::make_shared<QueryRequest>();
  req->query_id = qid;
  req->query = query.Serialize();
  req->reply_to = reply_to;
  req->mode = mode;
  req->ttl = ttl;
  req->visited_schemas = std::move(visited);
  req->mapping_path_len = path_len;
  req->confidence = confidence;
  req->sound_only = sound_only;
  if (routing.has_value()) {
    Key route_key = KeyFor(query.pattern().at(*routing).value());
    auto it2 = pending_queries_.find(qid);
    if (reply_to == id() && it2 != pending_queries_.end() &&
        !it2->second.closed) {
      // Issuer-side branch: track it and hand it to the retrying layer
      // instead of a single fire-and-forget send.
      uint64_t did = next_dispatch_id_++;
      req->dispatch_id = did;
      Branch b;
      b.req = req;
      b.route_key = route_key;
      if (Tracer* tr = LiveTracer()) {
        b.span = tr->StartSpan("op.dispatch", it2->second.span);
        req->trace_ctx = b.span;
      }
      // Iterative issuer-tracked dispatches are the batchable kind (a
      // recursive dispatch needs destination-side reformulation, which the
      // batch handler does not perform).
      OpenBranch(BranchKind::kQuery, qid, did, std::move(b),
                 options_.batch.enabled &&
                     mode == ReformulationMode::kIterative);
      return;
    }
    overlay_->Route(route_key, std::move(req));
    return;
  }
  // No exact constant, but a prefix-constrained literal ("Asp%..."): the
  // order-preserving hash maps the value range to a key-space subtree;
  // multicast the query there. The number of responders is unknown, so the
  // origin must collect until its window closes.
  auto it = pending_queries_.find(qid);
  if (it != pending_queries_.end() && reply_to == id()) {
    it->second.used_range_dispatch = true;
    // Range branches are untracked (unknown responder count); their flights
    // parent directly on the query span.
    req->trace_ctx = it->second.span;
  }
  overlay_->RouteRange(hash_.SubtreeFor(*range_prefix), std::move(req));
}

void GridVinePeer::IterativeExpand(uint64_t qid,
                                   const TriplePatternQuery& query,
                                   std::set<std::string> /*visited*/,
                                   int depth, int path_len,
                                   double confidence) {
  auto it = pending_queries_.find(qid);
  if (it == pending_queries_.end() || it->second.closed) return;
  int max_hops = it->second.options.max_hops >= 0
                     ? it->second.options.max_hops
                     : kMaxReformulationHops;
  if (depth >= max_hops) return;

  ++it->second.outstanding;  // the mapping fetch itself
  FetchMappingsFor(
      query.SchemaName(),
      [this, qid, query, depth, path_len,
       confidence](Result<std::vector<SchemaMapping>> fetched) {
        auto it2 = pending_queries_.find(qid);
        if (it2 == pending_queries_.end() || it2->second.closed) return;
        PendingQuery& p = it2->second;
        // The fetch keeps its outstanding unit until the loop is done: a
        // branch dispatched below can answer synchronously (the issuer is
        // responsible for its key), and dropping the count to zero there
        // would finish the query, erase `p` and leave the loop reading it.
        if (fetched.ok()) {
          std::string schema = query.SchemaName();
          for (const SchemaMapping& m : OrientMappingsFrom(
                   schema, *fetched, p.options.sound_only)) {
            if (p.visited.count(m.target_schema())) continue;
            auto reformed = Reformulate(query, m);
            if (!reformed.ok()) continue;
            p.visited.insert(m.target_schema());
            ++p.reformulations;
            ++p.outstanding;
            DispatchQuery(qid, *reformed, id(), ReformulationMode::kIterative,
                          0, {}, path_len + 1, confidence * m.confidence(),
                          p.options.sound_only);
            IterativeExpand(qid, *reformed, {}, depth + 1, path_len + 1,
                            confidence * m.confidence());
          }
        }
        --p.outstanding;
        MaybeFinishIterative(qid);
      });
}

void GridVinePeer::MaybeFinishIterative(uint64_t qid) {
  auto it = pending_queries_.find(qid);
  if (it == pending_queries_.end() || it->second.closed) return;
  PendingQuery& p = it->second;
  if (p.used_range_dispatch) return;  // unknown responder count: wait out
  bool iterative = !p.options.reformulate ||
                   p.options.mode == ReformulationMode::kIterative;
  if (iterative && p.outstanding <= 0) FinishQuery(qid);
}

void GridVinePeer::FinishQuery(uint64_t qid) {
  auto it = pending_queries_.find(qid);
  if (it == pending_queries_.end() || it->second.closed) return;
  it->second.closed = true;
  PendingQuery p = std::move(it->second);
  pending_queries_.erase(it);
  if (p.span.valid()) {
    if (Tracer* tr = LiveTracer()) {
      // Branches still open at the timeout end with the query.
      for (auto& [did, b] : p.branches) {
        if (!b.span.valid()) continue;
        tr->Annotate(b.span, "timed_out", 1.0);
        tr->EndSpan(b.span);
      }
      tr->Annotate(p.span, "reformulations", double(p.reformulations));
      tr->Annotate(p.span, "batches", double(p.batches.size()));
      tr->Annotate(p.span, "schemas", double(p.schemas_answered.size()));
      tr->EndSpan(p.span);
    }
  }
  p.on_finish(p);
}

// --- Dispatch branches ------------------------------------------------------------

GridVinePeer::BranchTable* GridVinePeer::BranchesOf(BranchKind kind,
                                                    uint64_t owner) {
  if (kind == BranchKind::kQuery) {
    auto it = pending_queries_.find(owner);
    if (it == pending_queries_.end() || it->second.closed) return nullptr;
    return &it->second.branches;
  }
  auto it = active_execs_.find(owner);
  return it == active_execs_.end() ? nullptr : &it->second->branches;
}

void GridVinePeer::OpenBranch(BranchKind kind, uint64_t owner, uint64_t did,
                              Branch b, bool batch) {
  std::shared_ptr<const MessageBody> req = b.req;
  Key route_key = b.route_key;
  // Route may answer synchronously (the issuer is responsible for the key):
  // register first. The timer is armed either way — a retry re-routes the
  // retained request individually, bypassing the batcher.
  BranchesOf(kind, owner)->emplace(did, std::move(b));
  if (batch) {
    EnqueueBatch(route_key, std::move(req));
  } else {
    overlay_->Route(route_key, std::move(req));
  }
  ArmBranchTimer(kind, owner, did, 1);
}

void GridVinePeer::ArmBranchTimer(BranchKind kind, uint64_t owner,
                                  uint64_t did, int attempt) {
  SimTime timeout = options_.query_retry.TimeoutFor(attempt, &rng_);
  // Captured for the retroactive backoff span: recomputing it at the fire as
  // now - timeout is off by floating-point rounding, which can push the
  // interval's start before its parent's.
  SimTime armed_at = sim_->Now();
  auto fire = [this, owner, did, armed_at, attempt, kind] {
    BranchTable* branches = BranchesOf(kind, owner);
    if (branches == nullptr) return;
    auto b = branches->find(did);
    // Answered in the meantime, or a newer attempt owns the timer.
    if (b == branches->end() || b->second.attempts != attempt) return;
    if (options_.query_retry.Exhausted(attempt)) {
      // Written off: the owner need not wait for it any longer.
      CloseBranch(kind, owner, did, /*answered=*/false);
      return;
    }
    int next_attempt = ++b->second.attempts;
    std::shared_ptr<const MessageBody> req = b->second.req;
    Key route_key = b->second.route_key;
    if (Tracer* tr = LiveTracer()) {
      if (b->second.span.valid()) {
        tr->Instant("op.retry", b->second.span);
        // Retroactive: the whole timeout window just spent waiting before
        // this retry — what the critical-path profiler books as backoff.
        tr->Interval("op.backoff", b->second.span, armed_at, sim_->Now());
      }
    }
    // Route can answer synchronously and close the branch; do not touch `b`
    // past this point.
    overlay_->Route(route_key, std::move(req));
    ArmBranchTimer(kind, owner, did, next_attempt);
  };
  static_assert(sizeof(fire) <= EventFn::kInlineSize,
                "retry timers must not allocate");
  sim_->Schedule(timeout, std::move(fire));
}

void GridVinePeer::CloseBranch(BranchKind kind, uint64_t owner, uint64_t did,
                               bool answered) {
  BranchTable* branches = BranchesOf(kind, owner);
  if (branches == nullptr) return;
  auto b = branches->find(did);
  if (b == branches->end()) return;
  if (b->second.span.valid()) {
    if (Tracer* tr = LiveTracer()) {
      tr->Annotate(b->second.span, "attempts", double(b->second.attempts));
      if (!answered) tr->Annotate(b->second.span, "timed_out", 1.0);
      tr->EndSpan(b->second.span);
    }
  }
  uint64_t call_id = b->second.call_id;
  branches->erase(b);
  if (kind == BranchKind::kQuery) {
    // Only iterative queries complete by counting branches: a recursive
    // query also collects answers from branches its intermediaries dispatch,
    // and a range multicast has an unknown responder count, so both wait out
    // the query timeout.
    PendingQuery& p = pending_queries_.at(owner);
    bool iterative = !p.options.reformulate ||
                     p.options.mode == ReformulationMode::kIterative;
    if (iterative && !p.used_range_dispatch) {
      --p.outstanding;
      MaybeFinishIterative(owner);
    }
    return;
  }
  ActiveExec& ae = *active_execs_.at(owner);
  auto c = ae.calls.find(call_id);
  if (c == ae.calls.end()) return;
  // Any exhausted branch turns the whole call into a Timeout.
  if (!answered) c->second.timed_out = true;
  if (--c->second.outstanding == 0) ResolveBoundCall(owner, call_id);
}

// --- Message handling -------------------------------------------------------------

void GridVinePeer::OnExtensionMessage(
    NodeId /*origin*/, std::shared_ptr<const MessageBody> payload,
    int /*hops*/) {
  if (auto* req = dynamic_cast<const QueryRequest*>(payload.get())) {
    HandleQueryRequest(*req);
  } else if (auto* resp = dynamic_cast<const QueryResponse*>(payload.get())) {
    HandleQueryResponse(*resp);
  } else if (auto* breq =
                 dynamic_cast<const BoundScanRequest*>(payload.get())) {
    HandleBoundScanRequest(*breq);
  } else if (auto* bresp =
                 dynamic_cast<const BoundScanResponse*>(payload.get())) {
    HandleBoundScanResponse(*bresp);
  } else if (auto* batch = dynamic_cast<const BatchEnvelope*>(payload.get())) {
    HandleBatchEnvelope(*batch);
  } else if (auto* sreq = dynamic_cast<const StatsRequest*>(payload.get())) {
    HandleStatsRequest(*sreq);
  } else if (auto* srec = dynamic_cast<const StatsRecord*>(payload.get())) {
    HandleStatsRecord(*srec);
  } else {
    GV_CLOG("gridvine", Warning) << "gridvine peer " << id()
                                 << ": unknown payload "
                                 << payload->TypeTag().name();
  }
}

void GridVinePeer::HandleQueryRequest(const QueryRequest& req) {
  auto query = TriplePatternQuery::Parse(req.query);
  if (!query.ok()) {
    GV_CLOG("gridvine", Warning) << "bad query payload: " << query.status();
    return;
  }
  std::string schema = query->SchemaName();

  if (req.mode == ReformulationMode::kRecursive) {
    // A schema is processed once per query at any given peer.
    auto seen_key = std::make_pair(req.query_id, schema);
    if (recursive_seen_.count(seen_key)) return;
    recursive_seen_.insert(seen_key);
  }

  ++counters_.queries_answered;
  // The answer depends only on the pattern (rows carry the pattern's
  // variable names) and the local store, so the extent cache keys on the
  // pattern serialization alone — "q|" separates full scans from bound
  // scans over the same pattern.
  std::string payload;
  size_t row_count = 0;
  bool cache_hit = false;
  if (cache_ != nullptr) {
    std::string pkey = "q|" + query->pattern().Serialize();
    if (const ExtentCache::Extent* hit =
            cache_->Lookup(pkey, {}, local_db().version())) {
      payload = hit->rows;
      row_count = hit->row_count;
      cache_hit = true;
    } else {
      auto rows = local_db().MatchPattern(query->pattern());
      row_count = rows.size();
      payload = SerializeBindings(rows);
      cache_->Insert(pkey, {}, local_db().version(),
                     ExtentCache::Extent{payload, {}, row_count});
    }
  } else {
    auto rows = local_db().MatchPattern(query->pattern());
    row_count = rows.size();
    payload = SerializeBindings(rows);
  }
  counters_.result_rows_sent += row_count;
  if (Tracer* tr = LiveTracer()) {
    // Marks the answering peer inside the request flight's subtree; the
    // response itself chains under the same flight via the ambient ctx.
    TraceCtx mark = tr->Instant("op.answer", ResponderParent(req.trace_ctx));
    tr->Annotate(mark, "schema", schema);
    tr->Annotate(mark, "rows", double(row_count));
    if (cache_hit) tr->Annotate(mark, "cached", 1.0);
  }
  auto resp = std::make_shared<QueryResponse>();
  resp->query_id = req.query_id;
  resp->dispatch_id = req.dispatch_id;
  resp->schema = schema;
  resp->rows = std::move(payload);
  resp->mapping_path_len = req.mapping_path_len;
  resp->confidence = req.confidence;
  resp->responder = id();
  SendResponse(req.reply_to, std::move(resp),
               ScanServeCost(cache_hit, row_count));

  if (req.mode != ReformulationMode::kRecursive || req.ttl <= 0) return;

  // Recursive mode: this peer reformulates and forwards on behalf of the
  // issuer (paper Section 4, "successive reformulations are delegated to
  // intermediate peers").
  TriplePatternQuery q = std::move(query).value();
  auto visited = req.visited_schemas;
  if (std::find(visited.begin(), visited.end(), schema) == visited.end()) {
    visited.push_back(schema);
  }
  uint64_t qid = req.query_id;
  NodeId reply_to = req.reply_to;
  int ttl = req.ttl;
  int path_len = req.mapping_path_len;
  double confidence = req.confidence;
  bool sound_only = req.sound_only;
  FetchMappingsFor(
      schema, [this, q, visited, qid, reply_to, ttl, path_len, confidence,
               sound_only](Result<std::vector<SchemaMapping>> fetched) {
        if (!fetched.ok()) return;
        std::string schema = q.SchemaName();
        for (const SchemaMapping& m :
             OrientMappingsFrom(schema, *fetched, sound_only)) {
          if (std::find(visited.begin(), visited.end(),
                        m.target_schema()) != visited.end()) {
            continue;
          }
          auto reformed = Reformulate(q, m);
          if (!reformed.ok()) continue;
          ++counters_.reformulations_performed;
          auto next_visited = visited;
          next_visited.push_back(m.target_schema());
          DispatchQuery(qid, *reformed, reply_to,
                        ReformulationMode::kRecursive, ttl - 1, next_visited,
                        path_len + 1, confidence * m.confidence(),
                        sound_only);
        }
      });
}

void GridVinePeer::HandleQueryResponse(const QueryResponse& resp) {
  auto it = pending_queries_.find(resp.query_id);
  if (it == pending_queries_.end() || it->second.closed) return;
  PendingQuery& p = it->second;

  // A response for a tracked branch that is no longer open is a duplicate
  // (network duplication, or both the original and a retry answering):
  // every branch is accounted exactly once, so drop it here.
  if (resp.dispatch_id != 0 && p.branches.count(resp.dispatch_id) == 0) {
    return;
  }

  auto rows = ParseBindings(resp.rows);
  if (rows.ok()) {
    RowBatch batch;
    batch.schema = resp.schema;
    batch.mapping_path_len = resp.mapping_path_len;
    batch.confidence = resp.confidence;
    batch.arrival = sim_->Now() - p.started;
    batch.rows = std::move(rows).value();
    if (!batch.rows.empty() && p.first_result < 0) {
      p.first_result = batch.arrival;
    }
    p.schemas_answered.insert(resp.schema);
    if (p.options.on_answer) {
      p.options.on_answer(batch.schema, batch.rows.size(), batch.arrival);
    }
    p.batches.push_back(std::move(batch));
  }

  // Untracked answers (range multicasts, recursive intermediaries) belong to
  // queries that wait out their timeout; a tracked one closes its branch,
  // which may complete the query.
  if (resp.dispatch_id != 0) {
    CloseBranch(BranchKind::kQuery, resp.query_id, resp.dispatch_id,
                /*answered=*/true);
  }
}

// --- Conjunctive queries ------------------------------------------------------------

/// GridVinePeer's QueryBackend: full-extent scans ride the existing
/// single-pattern engine (reliable dispatch, reformulation); bind-joins and
/// existence checks ride the bound-scan transport below.
class GridVinePeer::ExecBackend : public QueryBackend {
 public:
  ExecBackend(GridVinePeer* peer, uint64_t exec_id, QueryOptions options)
      : peer_(peer), exec_id_(exec_id), options_(std::move(options)) {}

  /// The executor hands us its current operator span; sub-queries and
  /// bound-scan branches parent there.
  void SetCallCtx(TraceCtx ctx) override { call_ctx_ = ctx; }

  void Scan(const TriplePattern& pattern, ScanCallback cb) override {
    auto vars = pattern.Variables();
    if (vars.empty()) {
      // The planner routes constant patterns to Exists, never here.
      cb({Status::Internal("full scan of a constant pattern"), {}});
      return;
    }
    // Any variable serves as the distinguished one; rows carry all bindings.
    TriplePatternQuery sub(vars[0], pattern);
    QueryOptions sub_options = options_;
    if (call_ctx_.valid()) sub_options.trace_parent = call_ctx_;
    peer_->StartQuery(sub, sub_options, [cb](PendingQuery& p) {
      ScanResult r;
      r.status = Status::OK();
      // Union the batches' rows, deduplicated with interned keys.
      BindingDeduper dd;
      for (const RowBatch& batch : p.batches) {
        for (const BindingSet& row : batch.rows) {
          if (dd.Insert(row)) r.rows.push_back(row);
        }
      }
      cb(std::move(r));
    });
  }

  void BoundScan(const TriplePattern& pattern, std::vector<BindingSet> probes,
                 BoundScanCallback cb) override {
    peer_->StartBoundScan(exec_id_, pattern, std::move(probes), std::move(cb),
                          call_ctx_);
  }

  void Exists(const TriplePattern& pattern,
              std::function<void(Result<bool>)> cb) override {
    // One unconstrained probe against the fully-constant pattern, routed
    // (by StartBoundScan) to the pattern's subject key: the destination
    // answers with an empty-or-singleton row set.
    std::vector<BindingSet> probes(1);
    peer_->StartBoundScan(
        exec_id_, pattern, std::move(probes),
        [cb](BoundScanResult r) {
          if (!r.status.ok()) {
            cb(std::move(r.status));
            return;
          }
          cb(!r.rows.empty());
        },
        call_ctx_);
  }

 private:
  GridVinePeer* peer_;
  uint64_t exec_id_;
  QueryOptions options_;
  TraceCtx call_ctx_;
};

void GridVinePeer::SearchForConjunctive(
    const ConjunctiveQuery& query, const QueryOptions& options,
    std::function<void(ConjunctiveResult)> cb) {
  Status valid = query.Validate();
  if (!valid.ok()) {
    ConjunctiveResult res;
    res.status = valid;
    cb(std::move(res));
    return;
  }

  if (stats_cache_ == nullptr) {
    // Statistics off: plan and run synchronously, exactly the legacy path.
    StartConjunctive(query, options, {}, std::move(cb));
    return;
  }

  // Statistics prefetch: one single-attempt StatsRequest per stale key
  // region the query's patterns route to. Planning proceeds once every
  // region answered, or at the fetch timeout — whichever is first; regions
  // still unanswered then simply plan on the greedy rank this time (and
  // their record, if it arrives later still, is dropped).
  SimTime now = sim_->Now();
  std::map<std::string, Key> stale_regions;
  for (const TriplePattern& p : query.patterns()) {
    auto routing = p.RoutingConstant();
    if (!routing.has_value()) continue;
    Key key = KeyFor(p.at(*routing).value());
    std::string region = key.ToString();
    if (!stats_cache_->Fresh(region, now)) stale_regions.emplace(region, key);
  }
  if (stale_regions.empty()) {
    StartConjunctive(query, options, EstimatesFor(query), std::move(cb));
    return;
  }

  uint64_t pid = next_prefetch_id_++;
  StatsPrefetch& pf = pending_stats_[pid];
  pf.outstanding = int(stale_regions.size());
  pf.proceed = [this, query, options, cb] {
    StartConjunctive(query, options, EstimatesFor(query), cb);
  };
  for (auto& [region, key] : stale_regions) {
    uint64_t rid = next_stats_req_++;
    pf.reqs.push_back(rid);
    open_stats_reqs_.emplace(rid, OpenStatsFetch{pid, region});
    auto req = std::make_shared<StatsRequest>();
    req->req_id = rid;
    req->reply_to = id();
    ++counters_.stats_fetches;
    overlay_->Route(key, std::move(req));
  }
  sim_->Schedule(kStatsFetchTimeout, [this, pid] {
    auto it = pending_stats_.find(pid);
    if (it == pending_stats_.end()) return;  // every region answered in time
    for (uint64_t rid : it->second.reqs) open_stats_reqs_.erase(rid);
    auto proceed = std::move(it->second.proceed);
    pending_stats_.erase(it);
    proceed();
  });
}

std::vector<PatternEstimate> GridVinePeer::EstimatesFor(
    const ConjunctiveQuery& query) {
  SimTime now = sim_->Now();
  std::vector<PatternEstimate> ests(query.patterns().size());
  bool any_known = false;
  for (size_t i = 0; i < query.patterns().size(); ++i) {
    const TriplePattern& p = query.patterns()[i];
    if (auto routing = p.RoutingConstant()) {
      std::string region = KeyFor(p.at(*routing).value()).ToString();
      if (const StoreSketch* sk = stats_cache_->Lookup(region, now)) {
        ests[i] = sk->EstimatePattern(p);
      }
    }
    // An observed extent cardinality for the exact pattern is ground truth:
    // it overrides the sketch's row estimate until it expires. Without a
    // sketch it cannot bound the join-key distincts, so those default to the
    // row count (every row distinct — the conservative upper bound).
    if (auto obs = stats_cache_->ObservedRows(p.Serialize(), now)) {
      if (!ests[i].known) {
        ests[i].distinct_subjects = std::max(1.0, *obs);
        ests[i].distinct_objects = std::max(1.0, *obs);
      }
      ests[i].known = true;
      ests[i].rows = *obs;
    }
    if (ests[i].known) any_known = true;
  }
  // All-unknown estimates plan as no estimates do: the greedy order, no
  // est_cards and so no adaptive re-planning.
  if (!any_known) ests.clear();
  return ests;
}

std::string GridVinePeer::ExplainConjunctivePlan(const ConjunctiveQuery& query,
                                                 const QueryOptions& options) {
  std::ostringstream os;
  if (Status v = query.Validate(); !v.ok()) {
    return "invalid query: " + v.ToString() + "\n";
  }
  std::vector<PatternEstimate> ests =
      stats_cache_ != nullptr ? EstimatesFor(query)
                              : std::vector<PatternEstimate>{};
  PlanOptions popts;
  popts.bind_join = options.bind_join;
  popts.estimates = ests;
  PhysicalPlan plan = PlanPhysical(query, popts);
  os << (ests.empty() ? "greedy plan" : "cost-based plan")
     << (stats_cache_ == nullptr
             ? " (statistics disabled)"
             : ests.empty() ? " (no fresh sketches cached)" : "")
     << ":\n" << plan.ToString() << "\n";
  os << "patterns (chain order";
  if (stats_cache_ != nullptr) os << "; est = sketch rows, obs = fed back";
  os << "):\n";
  SimTime now = sim_->Now();
  for (size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const auto& g = plan.groups[gi];
    for (size_t k = 0; k < g.patterns.size(); ++k) {
      size_t pi = g.patterns[k];
      const TriplePattern& p = query.patterns()[pi];
      os << "  g" << gi << "[" << k << "] p" << pi << " " << p.ToString();
      if (pi < ests.size() && ests[pi].known) {
        os << "  est_rows=" << ests[pi].rows;
      } else {
        os << "  est_rows=-";
      }
      if (k < g.est_cards.size() && !ests.empty()) {
        os << " est_join=" << g.est_cards[k];
      }
      if (stats_cache_ != nullptr) {
        if (auto obs = stats_cache_->ObservedRows(p.Serialize(), now)) {
          os << " obs_rows=" << *obs;
        } else {
          os << " obs_rows=-";
        }
      }
      os << "\n";
    }
  }
  return os.str();
}

void GridVinePeer::StartConjunctive(const ConjunctiveQuery& query,
                                    const QueryOptions& options,
                                    std::vector<PatternEstimate> estimates,
                                    std::function<void(ConjunctiveResult)> cb) {
  PlanOptions popts;
  popts.bind_join = options.bind_join;
  popts.estimates = std::move(estimates);
  PhysicalPlan plan = PlanPhysical(query, popts);

  uint64_t exec_id = (uint64_t(id()) << 32) | next_exec_id_++;
  auto ae = std::make_shared<ActiveExec>();
  ae->backend = std::make_unique<ExecBackend>(this, exec_id, options);
  ae->executor = std::make_unique<ConjunctiveExecutor>(query, std::move(plan),
                                                       ae->backend.get());
  if (Tracer* tr = LiveTracer()) {
    ae->span = tr->StartSpan("op.cquery", network_->ambient_ctx());
    tr->Annotate(ae->span, "patterns", double(query.patterns().size()));
    if (!popts.estimates.empty()) tr->Annotate(ae->span, "cost_based", 1.0);
    ae->executor->EnableTracing(tr, ae->span);
  }
  if (!popts.estimates.empty() && options_.stats.divergence > 0) {
    ae->executor->EnableAdaptive(popts, options_.stats.divergence);
  }
  // Observed-extent feedback targets (pattern serializations), captured up
  // front so the done lambda needs no reference back into the query.
  std::vector<std::string> pkeys;
  if (stats_cache_ != nullptr) {
    pkeys.reserve(query.patterns().size());
    for (const TriplePattern& p : query.patterns()) {
      pkeys.push_back(p.Serialize());
    }
  }
  active_execs_.emplace(exec_id, ae);
  SimTime started = sim_->Now();
  TraceCtx cspan = ae->span;
  ae->executor->Run([this, exec_id, started, cspan, cb,
                     pkeys = std::move(pkeys)](
                        ConjunctiveExecutor::ExecResult r) {
    ConjunctiveResult res;
    res.status = std::move(r.status);
    res.rows = std::move(r.rows);
    res.metrics = r.metrics;
    res.latency = sim_->Now() - started;
    res.trace_id = cspan.trace_id;
    // Feed the observed full-scan cardinalities back into the statistics
    // cache: the next query touching these patterns plans on ground truth.
    if (stats_cache_ != nullptr) {
      size_t n = std::min(pkeys.size(), r.observed_extents.size());
      for (size_t i = 0; i < n; ++i) {
        if (r.observed_extents[i] >= 0) {
          stats_cache_->Observe(pkeys[i], r.observed_extents[i], sim_->Now());
        }
      }
    }
    if (cspan.valid()) {
      if (Tracer* tr = LiveTracer()) {
        tr->Annotate(cspan, "rows", double(res.rows.size()));
        tr->Annotate(cspan, "rows_shipped", double(res.metrics.RowsShipped()));
        if (res.metrics.reoptimizations > 0) {
          tr->Annotate(cspan, "reoptimizations",
                       double(res.metrics.reoptimizations));
        }
        if (!res.status.ok()) tr->Annotate(cspan, "error", 1.0);
        tr->EndSpan(cspan);
      }
    }
    // The done callback fires from inside executor code: unregister the
    // exec now (no new transport events can reach it) but keep the objects
    // alive until the stack unwinds.
    auto it = active_execs_.find(exec_id);
    if (it != active_execs_.end()) {
      std::shared_ptr<ActiveExec> keep = std::move(it->second);
      active_execs_.erase(it);
      sim_->Schedule(0, [keep] {});
    }
    cb(std::move(res));
  });
}

// --- Bind-join transport ------------------------------------------------------------

void GridVinePeer::StartBoundScan(uint64_t exec_id,
                                  const TriplePattern& pattern,
                                  std::vector<BindingSet> probes,
                                  QueryBackend::BoundScanCallback cb,
                                  TraceCtx trace_parent) {
  auto it = active_execs_.find(exec_id);
  if (it == active_execs_.end()) {
    cb({Status::Internal("bound scan for unknown executor"), {}});
    return;
  }
  ActiveExec& ae = *it->second;

  // Partition the probes by destination key region. A pattern with a static
  // routing constant has one destination for every probe (all its matches
  // live at that key — maximal coalescing); otherwise each probe's
  // substituted pattern names its own key. std::map keeps the dispatch
  // order deterministic.
  struct Batch {
    std::vector<uint32_t> global_index;
    std::vector<BindingSet> probes;
  };
  std::map<Key, Batch> batches;
  auto static_routing = pattern.RoutingConstant();
  const Key static_key = static_routing.has_value()
                             ? KeyFor(pattern.at(*static_routing).value())
                             : Key();
  for (uint32_t pi = 0; pi < probes.size(); ++pi) {
    Key key;
    if (static_routing.has_value()) {
      key = static_key;
    } else {
      TriplePattern bound = SubstituteBindings(pattern, probes[pi]);
      auto routing = bound.RoutingConstant();
      // A probe whose substituted pattern still has no routable constant
      // cannot reach any data; it contributes no rows (legacy parity with
      // the unroutable-branch semantics).
      if (!routing.has_value()) continue;
      key = KeyFor(bound.at(*routing).value());
    }
    Batch& b = batches[key];
    b.global_index.push_back(pi);
    b.probes.push_back(std::move(probes[pi]));
  }

  uint64_t call_id = ae.next_call_id++;
  BoundCall call;
  call.cb = std::move(cb);
  call.outstanding = int(batches.size());
  ae.calls.emplace(call_id, std::move(call));
  if (batches.empty()) {
    ResolveBoundCall(exec_id, call_id);
    return;
  }

  for (auto& [key, batch] : batches) {
    auto req = std::make_shared<BoundScanRequest>();
    req->exec_id = exec_id;
    req->pattern = pattern.Serialize();
    req->probes = SerializeBindings(batch.probes);
    req->reply_to = id();
    uint64_t did = next_dispatch_id_++;
    req->dispatch_id = did;
    Branch b;
    b.req = req;
    b.route_key = key;
    b.call_id = call_id;
    b.global_index = std::move(batch.global_index);
    if (Tracer* tr = LiveTracer()) {
      b.span = tr->StartSpan("op.bound_scan", trace_parent);
      tr->Annotate(b.span, "probes", double(b.global_index.size()));
      req->trace_ctx = b.span;
    }
    // The last branch can resolve the call inside its own open step (the
    // issuer answers itself) and the executor may finish there; the loop
    // holds no reference into the exec.
    OpenBranch(BranchKind::kBoundScan, exec_id, did, std::move(b),
               options_.batch.enabled);
  }
}

void GridVinePeer::ResolveBoundCall(uint64_t exec_id, uint64_t call_id) {
  auto it = active_execs_.find(exec_id);
  if (it == active_execs_.end()) return;
  ActiveExec& ae = *it->second;
  auto c = ae.calls.find(call_id);
  if (c == ae.calls.end()) return;
  QueryBackend::BoundScanResult r;
  r.status = c->second.timed_out
                 ? Status::Timeout("bound scan branch exhausted retries")
                 : Status::OK();
  r.rows = std::move(c->second.rows);
  QueryBackend::BoundScanCallback cb = std::move(c->second.cb);
  ae.calls.erase(c);
  // The callback re-enters the executor: it may issue the next bind-join or
  // finish the whole query (which unregisters the ActiveExec) — no member
  // access past this call.
  cb(std::move(r));
}

void GridVinePeer::HandleBoundScanRequest(const BoundScanRequest& req) {
  ++counters_.bound_scans_answered;
  auto resp = std::make_shared<BoundScanResponse>();
  resp->exec_id = req.exec_id;
  resp->dispatch_id = req.dispatch_id;
  resp->responder = id();

  // Cache key: the pattern id plus the serialized probe batch (the
  // bound-constant signature). The cached value is the complete wire answer
  // — rows payload and probe-index tags — so a hit skips probe parsing,
  // substitution, matching and re-serialization alike.
  std::string pkey;
  if (cache_ != nullptr) {
    pkey = "b|" + req.pattern;
    if (const ExtentCache::Extent* hit =
            cache_->Lookup(pkey, req.probes, local_db().version())) {
      counters_.result_rows_sent += hit->row_count;
      if (Tracer* tr = LiveTracer()) {
        TraceCtx mark =
            tr->Instant("op.bound_answer", ResponderParent(req.trace_ctx));
        tr->Annotate(mark, "rows", double(hit->row_count));
        tr->Annotate(mark, "cached", 1.0);
      }
      resp->rows = hit->rows;
      resp->probe_index = hit->probe_index;
      SendResponse(req.reply_to, std::move(resp),
                   ScanServeCost(/*cache_hit=*/true, hit->row_count));
      return;
    }
  }

  auto pattern = TriplePattern::Parse(req.pattern);
  if (!pattern.ok()) {
    GV_CLOG("gridvine", Warning)
        << "bad bound scan pattern: " << pattern.status();
    return;
  }
  std::vector<BindingSet> probes;
  if (!req.probes.empty()) {
    auto parsed = ParseBindings(req.probes);
    if (!parsed.ok()) {
      GV_CLOG("gridvine", Warning)
          << "bad bound scan probes: " << parsed.status();
      return;
    }
    probes = std::move(parsed).value();
  }
  // An empty probes payload is the serialized form of one unconstrained
  // probe (the existence check): issuers never send zero probes.
  if (probes.empty()) probes.emplace_back();

  if (Tracer* tr = LiveTracer()) {
    TraceCtx mark =
        tr->Instant("op.bound_answer", ResponderParent(req.trace_ctx));
    tr->Annotate(mark, "probes", double(probes.size()));
  }
  std::vector<BindingSet> out_rows;
  for (uint32_t pi = 0; pi < probes.size(); ++pi) {
    TriplePattern bound = SubstituteBindings(*pattern, probes[pi]);
    bool fully_bound = bound.Variables().empty();
    auto rows = local_db().MatchPattern(bound);
    // A fully-bound pattern matches as one empty row per stored copy of the
    // triple; the answer is a boolean, so clamp to at most one.
    if (fully_bound && rows.size() > 1) rows.resize(1);
    for (auto& row : rows) {
      resp->probe_index.push_back(pi);
      out_rows.push_back(std::move(row));
    }
  }
  counters_.result_rows_sent += out_rows.size();
  // Rows of empty bindings (no free variables) serialize to nothing; the
  // parallel probe_index carries their count, so leave the payload empty.
  bool any_bindings = false;
  for (const BindingSet& row : out_rows) {
    if (!row.empty()) {
      any_bindings = true;
      break;
    }
  }
  resp->rows = any_bindings ? SerializeBindings(out_rows) : "";
  if (cache_ != nullptr) {
    cache_->Insert(pkey, req.probes, local_db().version(),
                   ExtentCache::Extent{resp->rows, resp->probe_index,
                                       out_rows.size()});
  }
  SendResponse(req.reply_to, std::move(resp),
               ScanServeCost(/*cache_hit=*/false, out_rows.size()));
}

void GridVinePeer::HandleBoundScanResponse(const BoundScanResponse& resp) {
  auto it = active_execs_.find(resp.exec_id);
  if (it == active_execs_.end()) return;  // exec finished: late answer
  ActiveExec& ae = *it->second;
  auto d = ae.branches.find(resp.dispatch_id);
  // A response for a branch that is no longer open is a duplicate (both the
  // original and a retry answering): every branch is accounted exactly once.
  if (d == ae.branches.end()) return;
  const Branch& b = d->second;

  std::vector<BindingSet> parsed;
  if (!resp.rows.empty()) {
    auto rows = ParseBindings(resp.rows);
    if (!rows.ok()) {
      GV_CLOG("gridvine", Warning)
          << "bad bound scan rows: " << rows.status();
      return;  // keep the branch open; a retry may deliver a clean copy
    }
    parsed = std::move(rows).value();
  }
  // All-empty binding rows travel as an empty payload (see the request
  // handler); reconstruct them from the probe_index count.
  if (parsed.size() != resp.probe_index.size()) {
    if (!parsed.empty()) {
      GV_CLOG("gridvine", Warning) << "bound scan rows/probe_index mismatch";
      return;
    }
    parsed.resize(resp.probe_index.size());
  }

  auto c = ae.calls.find(b.call_id);
  if (c != ae.calls.end()) {
    for (size_t i = 0; i < parsed.size(); ++i) {
      uint32_t local = resp.probe_index[i];
      if (local >= b.global_index.size()) continue;
      QueryBackend::BoundRow br;
      br.probe_index = b.global_index[local];
      br.bindings = std::move(parsed[i]);
      c->second.rows.push_back(std::move(br));
    }
  }
  CloseBranch(BranchKind::kBoundScan, resp.exec_id, resp.dispatch_id,
              /*answered=*/true);
}

// --- Statistics layer ---------------------------------------------------------

void GridVinePeer::HandleStatsRequest(const StatsRequest& req) {
  ++counters_.stats_served;
  // Lazy rebuild: the sketch is recomputed only when a request finds the
  // store version has moved — one integer compare per request, amortizing
  // the O(rows) build across a whole version epoch.
  if (serving_sketch_ == nullptr ||
      serving_sketch_->built_version() != local_db().version()) {
    serving_sketch_ =
        std::make_unique<StoreSketch>(StoreSketch::Build(local_db()));
    ++counters_.sketch_rebuilds;
  }
  if (Tracer* tr = LiveTracer()) {
    TraceCtx mark = tr->Instant("op.stats_answer", ResponderParent(req.trace_ctx));
    tr->Annotate(mark, "rows", double(serving_sketch_->total_rows()));
  }
  auto rec = std::make_shared<StatsRecord>();
  rec->req_id = req.req_id;
  rec->sketch = serving_sketch_->Serialize();
  rec->store_version = local_db().version();
  rec->responder = id();
  SendResponse(req.reply_to, std::move(rec),
               ScanServeCost(/*cache_hit=*/false, 0));
}

void GridVinePeer::HandleStatsRecord(const StatsRecord& rec) {
  auto it = open_stats_reqs_.find(rec.req_id);
  if (it == open_stats_reqs_.end()) return;  // written off at the timeout
  OpenStatsFetch of = std::move(it->second);
  open_stats_reqs_.erase(it);
  if (stats_cache_ != nullptr) {
    auto sketch = StoreSketch::Parse(rec.sketch);
    if (sketch.ok()) {
      stats_cache_->Put(of.region, std::move(sketch).value(), sim_->Now());
    } else {
      GV_CLOG("gridvine", Warning)
          << "bad stats record: " << sketch.status();
    }
  }
  auto p = pending_stats_.find(of.prefetch_id);
  if (p == pending_stats_.end()) return;
  if (--p->second.outstanding > 0) return;
  auto proceed = std::move(p->second.proceed);
  pending_stats_.erase(p);
  proceed();
}

// --- Serving layer ------------------------------------------------------------

SimTime GridVinePeer::ScanServeCost(bool cache_hit, size_t rows) const {
  if (!options_.service.enabled) return 0;
  if (cache_hit) return options_.service.per_hit;
  SimTime overhead = serving_batched_request_ ? options_.service.per_item
                                              : options_.service.per_request;
  return overhead + double(rows) * options_.service.per_row;
}

void GridVinePeer::SendResponse(NodeId to, std::shared_ptr<MessageBody> body,
                                SimTime cost) {
  if (LiveTracer() != nullptr && !body->trace_ctx.valid()) {
    // The causal parent is the request flight being handled right now; the
    // deferred send below runs from a timer where the ambient ctx is gone,
    // so stamp it on the body while it is still live.
    body->trace_ctx = network_->ambient_ctx();
  }
  if (batch_reply_sink_ != nullptr) {
    batch_reply_sink_->push_back(std::move(body));
    batch_sink_cost_ += cost;
    return;
  }
  if (!options_.service.enabled || cost <= 0) {
    overlay_->SendDirect(to, std::move(body));
    return;
  }
  // One logical server per peer: the response leaves once every earlier
  // response's service time has elapsed (FIFO). Under a flash crowd the hot
  // responder's queue is exactly this gap growing.
  SimTime now = sim_->Now();
  SimTime start = busy_until_ > now ? busy_until_ : now;
  busy_until_ = start + cost;
  if (Tracer* tr = LiveTracer()) {
    if (body->trace_ctx.valid()) {
      // The responder-side breakdown the critical-path profiler attributes:
      // time parked behind earlier responses is queue-wait, the service time
      // itself is op.service. Both hang off the request flight.
      if (start > now) {
        tr->Interval("op.queue", body->trace_ctx, now, start);
      }
      TraceCtx sv = tr->Interval("op.service", body->trace_ctx, start,
                                 busy_until_);
      tr->Annotate(sv, "cost", cost);
    }
  }
  sim_->Schedule(busy_until_ - now,
                 [this, to, body = std::move(body)]() mutable {
                   overlay_->SendDirect(to, std::move(body));
                 });
}

void GridVinePeer::EnqueueBatch(const Key& key,
                                std::shared_ptr<const MessageBody> part) {
  BatchBuffer& buf = batch_buffers_[key];
  if (buf.parts.empty()) {
    buf.gen = next_batch_gen_++;
    uint64_t gen = buf.gen;
    Key k = key;
    // The window runs in simulated time, so batching composition is part of
    // the deterministic event order (same seed => same batches).
    sim_->Schedule(kBatchWindow, [this, k, gen] { FlushBatch(k, gen); });
  }
  buf.parts.push_back(std::move(part));
  ++counters_.batch_items;
  if (buf.parts.size() >= kBatchMaxItems) FlushBatch(key, buf.gen);
}

void GridVinePeer::FlushBatch(const Key& key, uint64_t gen) {
  auto it = batch_buffers_.find(key);
  // Already flushed at kBatchMaxItems (a later buffer for the key carries a
  // newer generation), or empty: the window timer has nothing to do.
  if (it == batch_buffers_.end() || it->second.gen != gen ||
      it->second.parts.empty()) {
    return;
  }
  std::vector<std::shared_ptr<const MessageBody>> parts =
      std::move(it->second.parts);
  batch_buffers_.erase(it);
  ++counters_.batch_flushes;
  if (parts.size() == 1) {
    // A lone request gains nothing from the envelope; send it plain so the
    // responder path matches the unbatched mode.
    overlay_->Route(key, std::move(parts[0]));
    return;
  }
  auto env = std::make_shared<BatchEnvelope>();
  env->reply_to = id();
  env->parts = std::move(parts);
  overlay_->Route(key, std::move(env));
}

void GridVinePeer::HandleBatchEnvelope(const BatchEnvelope& env) {
  const MessageBody* first = nullptr;
  for (const auto& part : env.parts) {
    if (part) {
      first = part.get();
      break;
    }
  }
  if (first == nullptr) return;

  // Issuer side: a reply envelope demultiplexes into the per-query response
  // handlers (dispatch ids make this duplicate-safe, exactly as if the
  // responses had arrived individually).
  if (dynamic_cast<const QueryResponse*>(first) != nullptr ||
      dynamic_cast<const BoundScanResponse*>(first) != nullptr) {
    for (const auto& part : env.parts) {
      if (auto* qr = dynamic_cast<const QueryResponse*>(part.get())) {
        HandleQueryResponse(*qr);
      } else if (auto* br =
                     dynamic_cast<const BoundScanResponse*>(part.get())) {
        HandleBoundScanResponse(*br);
      }
    }
    return;
  }

  // Responder side: serve each part through its normal handler, with
  // responses collected into one reply envelope. Only iterative
  // single-pattern and bound-scan requests are ever batched (both answer
  // synchronously, without re-entering the network), so the sink cannot see
  // an unrelated response. The envelope pays one per_request of service
  // time; each part adds its own (per_item-based) cost via SendResponse.
  ++counters_.batches_answered;
  std::vector<std::shared_ptr<const MessageBody>> sink;
  batch_reply_sink_ = &sink;
  batch_sink_cost_ = options_.service.enabled ? options_.service.per_request : 0;
  serving_batched_request_ = true;
  for (const auto& part : env.parts) {
    if (auto* req = dynamic_cast<const QueryRequest*>(part.get())) {
      HandleQueryRequest(*req);
    } else if (auto* breq =
                   dynamic_cast<const BoundScanRequest*>(part.get())) {
      HandleBoundScanRequest(*breq);
    }
  }
  serving_batched_request_ = false;
  batch_reply_sink_ = nullptr;
  SimTime cost = batch_sink_cost_;
  batch_sink_cost_ = 0;
  if (sink.empty()) return;
  auto reply = std::make_shared<BatchEnvelope>();
  reply->reply_to = id();
  reply->parts = std::move(sink);
  SendResponse(env.reply_to, std::move(reply), cost);
}

size_t GridVinePeer::MemoryFootprint() const {
  // Transient query state (pending_queries_, active_execs_) is counted
  // structurally — its strings are short-lived and negligible against the
  // store and overlay at steady state.
  size_t bytes = sizeof(*this) + overlay_->MemoryFootprint();
  if (local_db_) bytes += sizeof(TripleStore) + local_db_->MemoryFootprint();
  if (cache_) bytes += sizeof(ExtentCache) + cache_->MemoryFootprint();
  if (frontend_) bytes += frontend_->MemoryFootprint();
  bytes += HashMapBytes(pending_queries_) + HashMapBytes(active_execs_);
  if (stats_cache_) bytes += stats_cache_->MemoryFootprint();
  if (serving_sketch_) bytes += serving_sketch_->MemoryFootprint();
  bytes += HashMapBytes(open_stats_reqs_) + HashMapBytes(pending_stats_);
  bytes += RbTreeBytes(recursive_seen_.size(), sizeof(*recursive_seen_.begin()));
  bytes += RbTreeBytes(published_degrees_.size(),
                       sizeof(*published_degrees_.begin()));
  if (remembered_) {
    bytes += sizeof(RememberedResponders) + HashMapBytes(remembered_->peers);
    for (const auto& [key, peer] : remembered_->peers) {
      bytes += StringHeapBytes(key.bits());
    }
  }
  return bytes;
}

}  // namespace gridvine
