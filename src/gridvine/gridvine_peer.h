#ifndef GRIDVINE_GRIDVINE_GRIDVINE_PEER_H_
#define GRIDVINE_GRIDVINE_GRIDVINE_PEER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "gridvine/messages.h"
#include "mapping/mapping_graph.h"
#include "mapping/schema_mapping.h"
#include "pgrid/pgrid_peer.h"
#include "query/exec/backend.h"
#include "query/exec/executor.h"
#include "query/extent_cache.h"
#include "query/query.h"
#include "query/stats/stats_cache.h"
#include "rdf/triple.h"
#include "schema/schema.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "store/triple_store.h"

namespace gridvine {

class QueryFrontend;

/// A complete GridVine peer: the semantic mediation layer stacked on a P-Grid
/// overlay peer (the paper's Figure 1). It provides the mediation-layer
/// primitives —
///
///   Update(data)      -> InsertTriple   (indexed 3x: subject/predicate/object)
///   Update(schema)    -> InsertSchema   (at Hash(schema name))
///   Update(mapping)   -> InsertMapping  (at the source-schema key space)
///   Update(connectivity) -> PublishDegree (at Hash(domain))
///   SearchFor(query)  -> SearchFor      (with optional reformulation,
///                                        iterative or recursive)
///
/// — and maintains the local relational database DB_p mirroring the overlay
/// entries this peer is responsible for.
class GridVinePeer {
 public:
  /// Max mappings chained during reformulation (iterative BFS depth and
  /// recursive TTL) unless QueryOptions::max_hops overrides it.
  static constexpr int kMaxReformulationHops = 6;

  struct Options {
    /// Bits of overlay keys produced by the order-preserving hash.
    int key_depth = 16;
    /// Window a query waits for (more) answers before reporting.
    SimTime query_timeout = 10.0;
    /// Retry discipline for the issuing peer's query dispatches (the
    /// reliable query layer): a branch that has not answered within the
    /// backed-off window is re-routed, up to max_attempts, instead of being
    /// written off by the single query_timeout. Branch retries stay inside
    /// the query window — an exhausted branch closes early so iterative
    /// queries need not wait out the full timeout.
    RetryPolicy query_retry{/*base_timeout=*/2.5, /*max_attempts=*/3,
                            /*backoff_multiplier=*/2.0, /*max_timeout=*/10.0,
                            /*jitter=*/0.1};

    // --- Serving layer (all default-off / no-op, so seeded runs of the
    // --- pre-serving scenarios replay unchanged) ---------------------------

    /// Responder-side result/extent cache (query/extent_cache.h): identical
    /// pattern + bound-constant signatures are answered from the cached wire
    /// payload, validated against TripleStore::version(). Bounded by
    /// ExtentCache::Options' defaults.
    struct CacheOptions {
      bool enabled = false;
    } cache;

    /// Cross-query batching: issuer-tracked RemoteScan/BoundScan requests
    /// headed to the same key region coalesce into one BatchEnvelope within
    /// kBatchWindow simulated seconds (or as soon as kBatchMaxItems
    /// accumulate). Retries always re-route the retained individual
    /// request, bypassing the batcher, so a lost envelope never strands its
    /// branches.
    struct BatchOptions {
      bool enabled = false;
    } batch;

    /// Responder-side service-time model: answering a scan occupies the
    /// peer's single logical server FIFO for a simulated cost, so hot key
    /// regions saturate under flash crowds and caching/batching buy real
    /// simulated throughput. Off = responses leave instantly (legacy).
    struct ServiceModel {
      bool enabled = false;
      SimTime per_request = 1e-3;  ///< fixed cost per wire request served
      SimTime per_item = 1e-4;     ///< marginal cost per extra batched item
      SimTime per_row = 5e-5;      ///< per result row matched + serialized
      SimTime per_hit = 1e-4;      ///< flat cost when served from the cache
    } service;

    /// Admission control for the per-peer QueryFrontend.
    struct FrontendOptions {
      size_t max_concurrent = 8;
      size_t max_queue = 64;
    } frontend;

    /// Distributed statistics + cost-based conjunctive planning
    /// (query/stats/): before planning, the issuer fetches the StoreSketch
    /// of each key region its patterns route to (cached with bounded
    /// staleness), orders joins by estimated cardinality, and the executor
    /// re-optimizes mid-flight when observations diverge. Off = legacy
    /// greedy planning; seeded runs replay bit-identically.
    struct StatsOptions {
      bool enabled = false;
      /// Cached sketch staleness bound (simulated seconds).
      SimTime ttl = 60.0;
      /// Mid-flight re-optimization threshold: the group's operator suffix
      /// is re-planned when observed/estimated cardinality diverges by this
      /// factor (either direction). <= 0 disables adaptive execution
      /// (static cost-based plans only).
      double divergence = 4.0;
    } stats;
  };

  using StatusCallback = std::function<void(Status)>;

  /// `overlay_seed` seeds the PGridPeer's stream, `jitter_seed` this
  /// layer's retry-jitter stream (both CompactRng seeds).
  GridVinePeer(Simulator* sim, Network* network, uint64_t overlay_seed,
               uint64_t jitter_seed, Options options,
               PGridPeer::Options overlay_options);
  ~GridVinePeer();

  GridVinePeer(const GridVinePeer&) = delete;
  GridVinePeer& operator=(const GridVinePeer&) = delete;

  /// The underlying overlay peer (construction, routing introspection).
  PGridPeer* overlay() { return overlay_.get(); }
  const PGridPeer* overlay() const { return overlay_.get(); }
  NodeId id() const { return overlay_->id(); }

  /// The local database DB_p: every triple filed at this peer under the key
  /// of one of its terms (by Update, Remove or replication), tagged with the
  /// positions those keys index; the overlay stores only the other values.
  /// Allocated on the first stored triple; until then this is a shared,
  /// immutable empty store (version 0).
  const TripleStore& local_db() const;

  /// The hasher defining this network's key space.
  const OrderPreservingHash& hasher() const { return hash_; }

  // --- Remembered responders -------------------------------------------------

  /// Most keys one peer remembers a responder for. It holds every set the
  /// benchmark workloads build (at most 221 keys, peer 0 after
  /// scale_sharded's bulk load); past that it only bounds the memory.
  static constexpr size_t kMaxRemembered = 256;

  /// For each key, the peer that last answered a Retrieve, Update or Remove
  /// this peer sent for it. Every such request of this layer sends its first
  /// attempt to the remembered peer, if any, and the reply updates the
  /// memory: it keeps whichever peer answered and forgets the key when the
  /// request fails. A wrong memory costs time, never an answer: a peer no
  /// longer responsible forwards the request, and a silent one times out
  /// and is avoided by the later attempts. Learning a key beyond
  /// kMaxRemembered forgets an arbitrary other one. Query dispatch does not
  /// use the memory.
  struct RememberedResponders {
    std::unordered_map<Key, NodeId, KeyHash> peers;
    /// First attempts sent straight to a remembered peer.
    uint64_t first_hops = 0;
    /// Those the remembered peer did not answer itself: it forwarded the
    /// request, or another peer answered a later attempt, or the request
    /// failed.
    uint64_t misses = 0;
  };
  /// Null until a peer other than this one first answers a request of it.
  const RememberedResponders* remembered() const { return remembered_.get(); }

  // --- Mediation-layer updates ---------------------------------------------

  /// Inserts a triple: three overlay updates keyed by the hash of its
  /// subject, predicate and object. The callback fires once all three are
  /// acknowledged (first error wins, remaining acks ignored).
  void InsertTriple(const Triple& triple, StatusCallback cb);

  /// Bulk load: validates every triple up front (failing fast, before any
  /// network traffic), then dispatches all 3·n overlay updates at once and
  /// fires the callback after the last ack (first error wins). Receiving
  /// peers absorb the burst through TripleStore's batch-friendly indexes.
  void InsertTriples(const std::vector<Triple>& triples, StatusCallback cb);

  /// Removes a triple (three overlay deletes).
  void RemoveTriple(const Triple& triple, StatusCallback cb);

  /// Publishes a schema definition at Hash(schema name).
  void InsertSchema(const Schema& schema, StatusCallback cb);

  /// Replaces the stored definition of `schema` (matched by name) with the
  /// given state, removing any stale serializations first. FetchSchema
  /// returns the first record matching the name, so schema *evolution* must
  /// go through this (a plain InsertSchema would leave the old definition
  /// discoverable).
  void UpsertSchema(const Schema& schema, StatusCallback cb);

  /// Publishes a mapping at its source schema's key space — and, when the
  /// mapping is bidirectional, at the target schema's key space too.
  void InsertMapping(const SchemaMapping& mapping, StatusCallback cb);

  /// Replaces the stored record of `mapping` (matched by id) with the given
  /// state — how deprecation becomes visible to the whole network.
  void UpsertMapping(const SchemaMapping& mapping, StatusCallback cb);

  // --- Mediation-layer lookups ---------------------------------------------
  // Each fetch (and UpsertSchema's) names its record kind as the retrieve's
  // value prefix: a schema's records share their key with the schema's
  // predicate-indexed triples, which therefore never travel back.

  /// Fetches a schema definition by name.
  void FetchSchema(const std::string& name,
                   std::function<void(Result<Schema>)> cb);

  /// Fetches all mappings stored at `schema`'s key space (deprecated ones
  /// included; callers filter).
  void FetchMappingsFor(const std::string& schema,
                        std::function<void(Result<std::vector<SchemaMapping>>)> cb);

  // --- Connectivity registry (Section 3.1) ---------------------------------

  /// One schema's degree record in a domain's connectivity registry.
  struct DegreeRecord {
    std::string schema;
    int in_degree = 0;
    int out_degree = 0;
    uint64_t version = 0;
  };

  /// Publishes (schema, in, out) under Hash(domain), superseding this peer's
  /// previous record for the schema (version counter). InvalidArgument for
  /// a schema name Schema::ValidateName rejects or a negative degree.
  void PublishDegree(const std::string& domain, const std::string& schema,
                     int in_degree, int out_degree, StatusCallback cb);

  /// Retrieves the registry for `domain`: latest record per schema. Records
  /// with a field that does not parse completely are skipped.
  void FetchDomainDegrees(
      const std::string& domain,
      std::function<void(Result<std::vector<DegreeRecord>>)> cb);

  // --- Query resolution (Sections 2.3 and 4) --------------------------------

  struct QueryOptions {
    /// Reformulate through schema mappings at all? (false = Section 2.3
    /// single-schema resolution.)
    bool reformulate = false;
    ReformulationMode mode = ReformulationMode::kIterative;
    /// Override of kMaxReformulationHops when >= 0.
    int max_hops = -1;
    /// Override of Options::query_timeout when > 0.
    SimTime timeout = -1;
    /// Ablation knob: route by this position instead of the most-specific
    /// constant (ignored unless that position holds an exact constant).
    /// Only affects the original dispatch at the issuing peer.
    std::optional<TriplePos> routing_position;
    /// Only traverse sound mapping directions: excludes generalizing
    /// (forward subsumption) reformulations — precision over recall. See
    /// OrientMappingsFrom in query/reformulation.h.
    bool sound_only = false;
    /// Conjunctive queries only: resolve patterns after a group's first by
    /// pushing the accumulated bindings toward the data (bind-join
    /// pushdown) instead of fetching each pattern's full extent. False
    /// selects the collect-then-join baseline.
    bool bind_join = true;
    /// Streaming hook: invoked for each batch of answer rows as it arrives
    /// (before the final aggregate callback) — how the paper's demo
    /// "monitors the list of results received for each query" live.
    /// Arguments: schema that answered, rows in the batch, arrival time.
    std::function<void(const std::string& schema, size_t rows,
                       SimTime arrival)>
        on_answer;
    /// Causal parent for the query's "op.search" span (the conjunctive
    /// executor routes its operator spans here). Invalid = parent on the
    /// ambient delivery ctx, or start a fresh trace.
    TraceCtx trace_parent{};
  };

  /// One value of the distinguished variable, with provenance.
  struct ResultItem {
    Term value;
    std::string schema;        ///< schema of the matching data
    int mapping_path_len = 0;  ///< mappings applied to reach that schema
    double confidence = 1.0;
    SimTime arrival = 0;       ///< simulated time the answer arrived
  };

  struct QueryResult {
    Status status;             ///< OK if the (original) query was resolved
    std::vector<ResultItem> items;
    size_t schemas_answered = 0;
    size_t reformulations = 0;
    SimTime latency = 0;       ///< issue-to-completion simulated seconds
    SimTime first_result_latency = -1;  ///< -1 when no results
    /// Trace of this query's span tree (0 when tracing was off) — the bench
    /// key for per-query hop/retry counts from the tracer's snapshot.
    uint64_t trace_id = 0;
  };
  using QueryCallback = std::function<void(QueryResult)>;

  /// Resolves SearchFor(x? : pattern). Items are deduplicated by
  /// (value, schema). With reformulation enabled the result aggregates
  /// answers from every schema reachable through non-deprecated mappings.
  void SearchFor(const TriplePatternQuery& query, const QueryOptions& options,
                 QueryCallback cb);

  /// Resolves a conjunctive query through the plan-driven executor
  /// (query/exec/): patterns split into join-connected groups running
  /// concurrently, each group resolved scan-then-bind-join (paper Section
  /// 2.3, with bind-join pushdown). Returns the distinct binding rows
  /// restricted to the distinguished variables.
  struct ConjunctiveResult {
    Status status;
    std::vector<BindingSet> rows;
    SimTime latency = 0;
    /// Issuer-side shipping accounting for this query.
    ConjunctiveExecutor::Metrics metrics;
    /// Trace of the query's "op.cquery" span tree (0 when tracing was off).
    uint64_t trace_id = 0;
  };
  void SearchForConjunctive(const ConjunctiveQuery& query,
                            const QueryOptions& options,
                            std::function<void(ConjunctiveResult)> cb);

  /// Human-readable plan explanation: the physical plan this peer would
  /// execute for `query` right now (greedy, or cost-based from whatever
  /// sketches its statistics cache currently holds — no fetches are
  /// issued), with per-pattern estimated rows and the last observed
  /// cardinality fed back by the adaptive executor.
  std::string ExplainConjunctivePlan(const ConjunctiveQuery& query,
                                     const QueryOptions& options);

  /// Statistics for experiments.
  struct Counters {
    uint64_t queries_issued = 0;
    uint64_t queries_answered = 0;  // as destination
    uint64_t reformulations_performed = 0;  // as recursive intermediary
    uint64_t bound_scans_answered = 0;  // as destination
    uint64_t result_rows_sent = 0;      // as destination (all response kinds)
    uint64_t batch_items = 0;           // as issuer: requests coalesced
    uint64_t batch_flushes = 0;         // as issuer: envelopes (or lone parts)
    uint64_t batches_answered = 0;      // as destination: envelopes served
    uint64_t stats_fetches = 0;         // as issuer: StatsRequests routed
    uint64_t stats_served = 0;          // as destination: sketches answered
    uint64_t sketch_rebuilds = 0;       // serving sketch rebuilt (store moved)
  };
  const Counters& counters() const { return counters_; }

  /// This peer's admission-controlled serving entry point, built on the
  /// first call (Options::frontend bounds it).
  QueryFrontend* frontend();
  /// The frontend if one has been built, else nullptr (never builds one).
  const QueryFrontend* frontend() const { return frontend_.get(); }

  /// The responder-side extent cache, or nullptr when Options::cache is off.
  const ExtentCache* cache() const { return cache_.get(); }

  /// The issuer-side statistics cache, or nullptr when Options::stats is off.
  const StatsCache* stats_cache() const { return stats_cache_.get(); }

  /// Adds this peer's counters into `metrics` under "gv.*".
  void PublishMetrics(MetricsRegistry* metrics) const;

  /// Bytes held by this peer across both layers: the mediation-layer object,
  /// local triple store, extent cache, frontend and statistics state, and
  /// the P-Grid overlay peer underneath.
  size_t MemoryFootprint() const;

  /// Conjunctive executors still in flight (0 once every conjunctive query
  /// has resolved — the chaos tests' leak check).
  size_t ActiveConjunctiveExecs() const { return active_execs_.size(); }
  /// Single-pattern queries still in flight.
  size_t PendingQueryCount() const { return pending_queries_.size(); }

  const Options& options() const { return options_; }

  /// The retry-jitter stream (tests check how it was seeded).
  const CompactRng& jitter_rng() const { return rng_; }

 private:
  /// One destination's answer to one (possibly reformulated) pattern.
  struct RowBatch {
    std::string schema;
    int mapping_path_len = 0;
    double confidence = 1.0;
    SimTime arrival = 0;
    std::vector<BindingSet> rows;
  };

  /// One retried dispatch branch the issuer tracks: a query branch of a
  /// pending query, or one destination key region of a bound-scan call. The
  /// request is kept so a retry re-routes the identical payload (same
  /// dispatch_id — duplicate answers collapse onto one branch closure).
  struct Branch {
    std::shared_ptr<const MessageBody> req;
    Key route_key;
    int attempts = 1;
    /// "op.dispatch" or "op.bound_scan" span; attempts' flights, retry
    /// markers and backoff intervals parent here.
    TraceCtx span;
    /// Bound scans only: the BoundCall this branch reports to, and its local
    /// probe indexes mapped back to the call's.
    uint64_t call_id = 0;
    std::vector<uint32_t> global_index;
  };
  /// A branch owner's open branches, keyed by dispatch_id.
  using BranchTable = std::unordered_map<uint64_t, Branch>;
  /// Who owns a branch: a pending query (owner id = query id) or a
  /// conjunctive executor (owner id = exec id).
  enum class BranchKind : uint8_t { kQuery, kBoundScan };

  struct PendingQuery {
    TriplePatternQuery query;
    QueryOptions options;
    SimTime started = 0;
    // Aggregation state.
    std::vector<RowBatch> batches;
    std::set<std::string> schemas_answered;
    std::set<std::string> visited;  // schemas covered (iterative expansion)
    size_t reformulations = 0;
    SimTime first_result = -1;
    // Iterative-mode bookkeeping: branches still expected to answer.
    int outstanding = 0;
    // Dispatch branches awaiting an answer.
    BranchTable branches;
    // Range (multicast) dispatches have an unknown number of responders:
    // such a query only completes at its timeout.
    bool used_range_dispatch = false;
    bool closed = false;
    /// "op.search" span covering the whole query.
    TraceCtx span;
    // Invoked exactly once when the query completes (early or at timeout).
    std::function<void(PendingQuery&)> on_finish;
  };

  Key KeyFor(const std::string& term_value) const { return hash_(term_value); }

  /// The one way this layer issues an overlay Retrieve (`op` empty; `value`
  /// is the value prefix), Update or Remove of `key`: the first attempt goes
  /// to the peer remembered for `key` (see RememberedResponders).
  void OverlayRequest(std::optional<UpdateOp> op, const Key& key,
                      const std::string& value, PGridPeer::ReplyCallback cb);
  /// Updates the memory from the reply to a request whose first attempt
  /// went to `first_hop` (kInvalidNode when nothing was remembered).
  void Remember(const Key& key, NodeId first_hop,
                const Result<PGridPeer::Reply>& reply);

  /// Core engine shared by SearchFor and SearchForConjunctive: resolves one
  /// pattern (with optional reformulation) and hands the accumulated batches
  /// to `on_finish`.
  uint64_t StartQuery(const TriplePatternQuery& query,
                      const QueryOptions& options,
                      std::function<void(PendingQuery&)> on_finish);

  /// Fans one (possibly reformulated) pattern out to its destination.
  /// `reply_to` is the peer that must receive the answer.
  void DispatchQuery(uint64_t qid, const TriplePatternQuery& query,
                     NodeId reply_to, ReformulationMode mode, int ttl,
                     std::vector<std::string> visited, int path_len,
                     double confidence, bool sound_only);

  /// Iterative engine: fetch mappings of `schema`, reformulate, recurse.
  void IterativeExpand(uint64_t qid, const TriplePatternQuery& query,
                       std::set<std::string> visited, int depth,
                       int path_len, double confidence);

  void FinishQuery(uint64_t qid);
  void MaybeFinishIterative(uint64_t qid);

  // --- Dispatch branches (both request kinds) ------------------------------

  /// The open branches of `owner`, or nullptr once it has finished.
  BranchTable* BranchesOf(BranchKind kind, uint64_t owner);
  /// Registers branch `b` (its request already stamped with dispatch id
  /// `did` and the branch span) with its live owner, batches or routes the
  /// request, and arms the first retry timer. The branch may close inside
  /// this call when the issuer answers itself.
  void OpenBranch(BranchKind kind, uint64_t owner, uint64_t did, Branch b,
                  bool batch);
  /// The one retry timer: on expiry of `attempt` the branch's retained
  /// request is re-routed (backoff per Options::query_retry, recorded as
  /// op.retry + op.backoff) or, once exhausted, the branch is closed.
  void ArmBranchTimer(BranchKind kind, uint64_t owner, uint64_t did,
                      int attempt);
  /// Ends the branch span and reports the branch answered or exhausted to
  /// its owner: the query's outstanding count, or the bound call.
  void CloseBranch(BranchKind kind, uint64_t owner, uint64_t did,
                   bool answered);

  // --- Bind-join transport (the QueryBackend the executor drives) ----------

  /// The peer-side QueryBackend implementation (defined in the .cc).
  class ExecBackend;

  /// One QueryBackend::BoundScan invocation: its probes fan out to one
  /// dispatch branch per destination key region; the call resolves once
  /// every branch has answered or exhausted its retries (any exhausted
  /// branch turns the whole call into a Timeout).
  struct BoundCall {
    QueryBackend::BoundScanCallback cb;
    std::vector<QueryBackend::BoundRow> rows;
    int outstanding = 0;
    bool timed_out = false;
  };

  /// One in-flight conjunctive query: executor + its transport state.
  struct ActiveExec {
    std::unique_ptr<QueryBackend> backend;
    std::unique_ptr<ConjunctiveExecutor> executor;
    BranchTable branches;                           // bound-scan branches
    std::unordered_map<uint64_t, BoundCall> calls;  // by call id
    uint64_t next_call_id = 1;
    /// "op.cquery" root span covering the whole conjunctive query.
    TraceCtx span;
  };

  /// Dispatches one BoundScan call: partitions the probes per destination
  /// key region and opens one branch per region. `trace_parent` parents the
  /// per-branch "op.bound_scan" spans (normally the executor's operator
  /// span).
  void StartBoundScan(uint64_t exec_id, const TriplePattern& pattern,
                      std::vector<BindingSet> probes,
                      QueryBackend::BoundScanCallback cb,
                      TraceCtx trace_parent = TraceCtx{});
  void ResolveBoundCall(uint64_t exec_id, uint64_t call_id);

  /// Extension dispatch from the overlay.
  void OnExtensionMessage(NodeId origin,
                          std::shared_ptr<const MessageBody> payload,
                          int hops);
  void HandleQueryRequest(const QueryRequest& req);
  void HandleQueryResponse(const QueryResponse& resp);
  void HandleBoundScanRequest(const BoundScanRequest& req);
  void HandleBoundScanResponse(const BoundScanResponse& resp);
  void HandleBatchEnvelope(const BatchEnvelope& env);

  // --- Statistics layer -----------------------------------------------------

  /// Back half of SearchForConjunctive: plans the query (cost-based when
  /// `estimates` carries at least one known entry, legacy greedy otherwise)
  /// and runs the executor.
  void StartConjunctive(const ConjunctiveQuery& query,
                        const QueryOptions& options,
                        std::vector<PatternEstimate> estimates,
                        std::function<void(ConjunctiveResult)> cb);
  /// Builds the estimates vector for `query` from the statistics cache
  /// (sketch estimates overridden by fresher observed cardinalities).
  std::vector<PatternEstimate> EstimatesFor(const ConjunctiveQuery& query);
  void HandleStatsRequest(const StatsRequest& req);
  void HandleStatsRecord(const StatsRecord& rec);

  // --- Serving layer --------------------------------------------------------

  /// Appends an issuer-tracked request to the destination region's pending
  /// batch, scheduling a flush at now + kBatchWindow when the buffer was
  /// empty (flushing early at kBatchMaxItems).
  void EnqueueBatch(const Key& key, std::shared_ptr<const MessageBody> part);
  /// Sends one region's pending batch; `gen` guards the window timer against
  /// a buffer that was already flushed (overflow) and restarted since.
  void FlushBatch(const Key& key, uint64_t gen);

  /// Sends a response `cost` simulated seconds of service time from now,
  /// serialized through this peer's FIFO server (the service-time model).
  /// Immediate when the model is off; deposits into batch_reply_sink_ while
  /// a batch envelope is being served. Takes the body non-const so the
  /// request's causal ctx can be stamped on it — the service model defers
  /// the actual send to a timer, where the ambient delivery ctx is gone.
  void SendResponse(NodeId to, std::shared_ptr<MessageBody> body,
                    SimTime cost);
  /// Service cost of answering one scan/bound-scan request.
  SimTime ScanServeCost(bool cache_hit, size_t rows) const;

  /// The overlay's storage keeper: takes a triple filed under the key of
  /// one of its terms and sets or clears the tags of those positions in
  /// DB_p. Every other value stays with the overlay.
  bool KeepTriple(UpdateOp op, const Key& key, const std::string& value);
  /// DB_p for writing, allocated on first use. A fresh store's version moves
  /// past the shared empty store's 0 on its first insert, so extent-cache
  /// entries taken before materialization go stale like any other.
  TripleStore& MutableLocalDb();

  /// The network's tracer while tracing is live, else nullptr.
  Tracer* LiveTracer() const;
  TraceCtx ResponderParent(const TraceCtx& carried) const;
  /// The frontend opens its "op.serve"/"op.queue" spans on the same tracer.
  friend class QueryFrontend;

  Simulator* sim_;
  Network* network_;
  /// Retry-jitter stream (ArmBranchTimer); one machine word, as every peer
  /// carries one.
  CompactRng rng_;
  Options options_;
  OrderPreservingHash hash_;
  std::unique_ptr<PGridPeer> overlay_;
  /// DB_p; null until the first triple lands here (most peers at scale
  /// never store one).
  std::unique_ptr<TripleStore> local_db_;
  /// Null until another peer first answers a request of this one.
  std::unique_ptr<RememberedResponders> remembered_;
  std::unordered_map<uint64_t, PendingQuery> pending_queries_;
  /// Conjunctive executors in flight, keyed by exec id. shared_ptr so a
  /// finished exec can be kept alive until the stack unwinds (the done
  /// callback fires from inside executor code).
  std::unordered_map<uint64_t, std::shared_ptr<ActiveExec>> active_execs_;
  /// Recursive-mode duplicate suppression: (query id, schema) already handled
  /// at this peer.
  std::set<std::pair<uint64_t, std::string>> recursive_seen_;
  /// Last published connectivity record per (domain, schema), for supersede.
  std::map<std::pair<std::string, std::string>, std::string> published_degrees_;
  uint64_t next_version_ = 1;
  uint64_t next_query_id_ = 1;
  uint64_t next_dispatch_id_ = 1;
  uint64_t next_exec_id_ = 1;
  Counters counters_;

  // --- Statistics-layer state -----------------------------------------------
  std::unique_ptr<StatsCache> stats_cache_;  // null unless Options::stats.enabled
  /// Serving-side sketch of DB_p, rebuilt lazily when a StatsRequest finds
  /// the store version has moved past built_version().
  std::unique_ptr<StoreSketch> serving_sketch_;
  /// One outstanding single-attempt sketch fetch.
  struct OpenStatsFetch {
    uint64_t prefetch_id = 0;
    std::string region;  ///< StatsCache key the record lands under
  };
  std::unordered_map<uint64_t, OpenStatsFetch> open_stats_reqs_;  // by req_id
  /// One query's pre-planning fetch wave: proceeds when every region
  /// answered or at the fetch timeout, whichever is first.
  struct StatsPrefetch {
    int outstanding = 0;
    std::vector<uint64_t> reqs;  ///< req_ids, written off at the timeout
    std::function<void()> proceed;
  };
  std::unordered_map<uint64_t, StatsPrefetch> pending_stats_;  // by prefetch_id
  uint64_t next_stats_req_ = 1;
  uint64_t next_prefetch_id_ = 1;

  // --- Serving-layer state --------------------------------------------------
  std::unique_ptr<ExtentCache> cache_;  // null unless Options::cache.enabled
  std::unique_ptr<QueryFrontend> frontend_;  // null until frontend() is called
  /// Pending cross-query batch per destination key region. std::map keeps
  /// flush-vs-enqueue interleavings deterministic.
  struct BatchBuffer {
    uint64_t gen = 0;
    std::vector<std::shared_ptr<const MessageBody>> parts;
  };
  std::map<Key, BatchBuffer> batch_buffers_;
  uint64_t next_batch_gen_ = 1;
  /// Service-time model: when this peer's logical server frees up.
  SimTime busy_until_ = 0;
  /// Non-null while serving a BatchEnvelope: handlers deposit their
  /// responses here (instead of SendDirect) and costs accumulate in
  /// batch_sink_cost_. Only iterative single-pattern and bound-scan parts
  /// are ever batched, so no handler re-enters the network mid-sink.
  std::vector<std::shared_ptr<const MessageBody>>* batch_reply_sink_ = nullptr;
  SimTime batch_sink_cost_ = 0;
  bool serving_batched_request_ = false;  // per_item overhead, not per_request
};

}  // namespace gridvine

#endif  // GRIDVINE_GRIDVINE_GRIDVINE_PEER_H_
