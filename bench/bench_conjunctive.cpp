// Bind-join pushdown vs collect-then-join on a skewed selective-join
// workload: a handful of "gadget" entities (the selective pattern) joined
// against a wide w:size extent every entity contributes to. Collect mode
// ships the full extent of every pattern to the issuer; bind-join ships the
// running join's distinct keys out and only the matching rows back, so rows
// shipped should drop by the extent/selectivity ratio (the PR acceptance
// floor is 3x) and the message count should fall with it (one batched probe
// dispatch per destination key region instead of per-extent responses).
//
//   $ ./bench/bench_conjunctive
//   $ GV_ENTITIES=100 GV_QUERIES=8 ./bench/bench_conjunctive   # quicker
//   $ GV_BENCH_QUICK=1 ./bench/bench_conjunctive               # CI smoke
//
// Every query is also checked differentially: both modes must return the
// same result set, or the bench aborts.
//
// The second half is the Zipf skew sweep: predicate extents drawn from a
// Zipf(s) size distribution, queried greedy vs cost-based vs adaptive. The
// greedy heuristic cannot tell the hot extent from a cold one of the same
// pattern shape, so it leads every join with the hot extent; the cost-based
// planner leads with the cold one from fetched sketches (acceptance floor:
// 2x fewer rows+bytes at equal recall). A drift phase then grows cold
// extents under the static planner's stale sketches — adaptive
// re-optimization plus observed-cardinality feedback must recover while
// static cost-based keeps paying for its stale choice.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench_json.h"
#include "trace_stats.h"
#include "gridvine/gridvine_network.h"
#include "pgrid/load_stats.h"
#include "query/stats/sketch.h"
#include "store/binding_codec.h"

using namespace gridvine;

namespace {

size_t EnvOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? size_t(std::strtoull(v, nullptr, 10)) : fallback;
}

TriplePattern P(Term s, Term p, Term o) {
  return TriplePattern(std::move(s), std::move(p), std::move(o));
}

/// Skewed store: every entity has a w:size (the wide extent); one in
/// `selectivity` is a gadget (the selective extent); gadgets link around.
std::vector<Triple> MakeTriples(size_t entities, size_t selectivity,
                                Rng* rng) {
  std::vector<Triple> triples;
  for (size_t e = 0; e < entities; ++e) {
    Term subj = Term::Uri("w:e" + std::to_string(e));
    const bool gadget = e % selectivity == 0;
    triples.emplace_back(subj, Term::Uri("w:type"),
                         Term::Literal(gadget ? "gadget" : "widget"));
    triples.emplace_back(
        subj, Term::Uri("w:size"),
        Term::Literal(std::to_string(rng->UniformInt(1, 9))));
    if (gadget) {
      triples.emplace_back(
          subj, Term::Uri("w:link"),
          Term::Uri("w:e" + std::to_string(
                                rng->UniformInt(0, int64_t(entities) - 1))));
    }
  }
  return triples;
}

std::vector<ConjunctiveQuery> MakeQueries() {
  return {
      // Selective type pattern drives a bind-join into the wide size extent.
      ConjunctiveQuery(
          {"x", "l"},
          {P(Term::Var("x"), Term::Uri("w:type"), Term::Literal("gadget")),
           P(Term::Var("x"), Term::Uri("w:size"), Term::Var("l"))}),
      // Two hops: gadgets, their links, and the link targets' sizes.
      ConjunctiveQuery(
          {"x", "y", "l"},
          {P(Term::Var("x"), Term::Uri("w:type"), Term::Literal("gadget")),
           P(Term::Var("x"), Term::Uri("w:link"), Term::Var("y")),
           P(Term::Var("y"), Term::Uri("w:size"), Term::Var("l"))}),
      // No entity is a gizmo: binding propagation short-circuits after the
      // first scan and never dispatches into the wide size extent, while
      // collect mode ships the whole extent before discovering the join is
      // empty — the message-count gap of the two strategies.
      ConjunctiveQuery(
          {"x", "l"},
          {P(Term::Var("x"), Term::Uri("w:type"), Term::Literal("gizmo")),
           P(Term::Var("x"), Term::Uri("w:size"), Term::Var("l"))}),
  };
}

struct ModeStats {
  uint64_t rows_shipped = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double latency_sum = 0;
  size_t queries = 0;
  std::vector<std::set<std::string>> row_sets;
  std::vector<size_t> hops;     ///< per-query message flights, from traces
  std::vector<size_t> retries;  ///< per-query retry markers, from traces
  gridvine::bench::CriticalPathAgg cp;  ///< latency attribution, from traces

  double MeanLatency() const {
    return queries == 0 ? 0 : latency_sum / double(queries);
  }
};

/// One full deployment + query run in the given mode. Same seed → identical
/// overlay, placement and data in both modes; only the executor differs.
ModeStats RunMode(bool bind_join, size_t entities, size_t selectivity,
                  size_t rounds, uint64_t seed) {
  GridVineNetwork::Options options;
  options.num_peers = 24;
  options.key_depth = 12;
  options.seed = seed;
  GridVineNetwork net(options);

  Rng data_rng(seed * 31 + 7);
  if (!net.InsertTriples(0, MakeTriples(entities, selectivity, &data_rng))
           .ok()) {
    std::fprintf(stderr, "data load failed\n");
    std::exit(1);
  }
  net.Settle();

  const uint64_t msg_before = net.network()->stats().messages_sent;
  const uint64_t bytes_before = net.network()->stats().bytes_sent;

  // Traced run == untraced run (span ids are a plain counter, no Rng draw),
  // so hop/retry extraction does not perturb the message counts above.
  net.tracer()->Enable(1 << 16);

  GridVinePeer::QueryOptions qopts;
  qopts.bind_join = bind_join;
  ModeStats stats;
  const auto queries = MakeQueries();
  for (size_t r = 0; r < rounds; ++r) {
    for (const auto& q : queries) {
      size_t issuer = (r * queries.size()) % net.size();
      net.tracer()->Clear();
      auto res = net.SearchForConjunctive(issuer, q, qopts);
      if (!res.status.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     res.status.ToString().c_str());
        std::exit(1);
      }
      TraceAnalyzer an(net.tracer()->Snapshot());
      auto ts = gridvine::bench::HopsAndRetries(an.spans(), res.trace_id);
      stats.hops.push_back(ts.hops);
      stats.retries.push_back(ts.retries);
      stats.cp.Add(an.CriticalPathFor(res.trace_id));
      stats.rows_shipped += res.metrics.RowsShipped();
      stats.latency_sum += res.latency;
      ++stats.queries;
      std::set<std::string> rows;
      for (const auto& row : res.rows) rows.insert(SerializeBindings({row}));
      stats.row_sets.push_back(std::move(rows));
    }
  }
  stats.messages = net.network()->stats().messages_sent - msg_before;
  stats.bytes = net.network()->stats().bytes_sent - bytes_before;
  return stats;
}

// --- Zipf skew sweep: greedy vs cost-based vs adaptive -----------------------

constexpr size_t kZipfPreds = 8;

/// Predicate k's extent holds entities / (k + 1)^s subjects: z:p0 is the hot
/// extent every query must join against, the tail predicates are cold.
/// Deterministic (no rng) so every mode loads byte-identical data.
std::vector<Triple> MakeZipfTriples(size_t entities, double s) {
  std::vector<Triple> triples;
  for (size_t k = 0; k < kZipfPreds; ++k) {
    size_t n = std::max<size_t>(
        2, size_t(double(entities) / std::pow(double(k + 1), s)));
    for (size_t i = 0; i < n; ++i) {
      triples.emplace_back(
          Term::Uri("w:e" + std::to_string(i)),
          Term::Uri("z:p" + std::to_string(k)),
          Term::Literal(std::string("v")
                            .append(std::to_string(k))
                            .append("_")
                            .append(std::to_string(i))));
    }
  }
  return triples;
}

/// Growth for the drift phase: the three coldest extents balloon under
/// fresh subjects (w:d*), so result sets stay untouched while every cached
/// sketch's row count for those predicates goes badly stale.
std::vector<Triple> MakeDriftTriples(size_t rows_per_pred) {
  std::vector<Triple> triples;
  for (size_t k = kZipfPreds - 3; k < kZipfPreds; ++k) {
    for (size_t i = 0; i < rows_per_pred; ++i) {
      triples.emplace_back(
          Term::Uri("w:d" + std::to_string(i)),
          Term::Uri("z:p" + std::to_string(k)),
          Term::Literal(std::string("d")
                            .append(std::to_string(k))
                            .append("_")
                            .append(std::to_string(i))));
    }
  }
  return triples;
}

/// Each query joins the hot extent against one cold one, hot pattern FIRST:
/// the greedy planner (same shape class, index order) leads with it and
/// ships the whole hot extent; the cost model reorders.
std::vector<ConjunctiveQuery> MakeZipfQueries() {
  std::vector<ConjunctiveQuery> queries;
  for (size_t k = 2; k < kZipfPreds; ++k) {
    queries.emplace_back(
        std::vector<std::string>{"x", "a", "b"},
        std::vector<TriplePattern>{
            P(Term::Var("x"), Term::Uri("z:p0"), Term::Var("a")),
            P(Term::Var("x"), Term::Uri("z:p" + std::to_string(k)),
              Term::Var("b"))});
  }
  return queries;
}

struct ZipfModeCfg {
  const char* row;
  int mode;  ///< 0 = greedy, 1 = static cost-based, 2 = adaptive
  bool stats;
  double divergence;
};

struct ZipfStats {
  uint64_t rows = 0, bytes = 0, messages = 0;
  uint64_t drift_rows = 0, drift_bytes = 0;
  uint64_t reoptimizations = 0;
  double latency_sum = 0;
  size_t queries = 0;
  double imbalance = 0, gini = 0;
  std::vector<std::set<std::string>> row_sets;
};

ZipfStats RunZipfMode(const ZipfModeCfg& cfg, size_t entities, double zipf_s,
                      size_t rounds, uint64_t seed) {
  GridVineNetwork::Options options;
  options.num_peers = 24;
  options.key_depth = 12;
  options.seed = seed;
  if (cfg.stats) {
    options.peer.stats.enabled = true;
    // Never expire: the drift phase measures what stale sketches cost the
    // static planner, so TTL refresh must not bail it out.
    options.peer.stats.ttl = 1e9;
    options.peer.stats.divergence = cfg.divergence;
  }
  GridVineNetwork net(options);
  if (!net.InsertTriples(0, MakeZipfTriples(entities, zipf_s)).ok()) {
    std::fprintf(stderr, "zipf data load failed\n");
    std::exit(1);
  }
  net.Settle();

  const auto queries = MakeZipfQueries();
  GridVinePeer::QueryOptions qopts;
  ZipfStats stats;
  // rows_sink == nullptr marks an unmeasured warm-up query.
  auto run_query = [&](const ConjunctiveQuery& q, uint64_t* rows_sink) {
    auto res = net.SearchForConjunctive(0, q, qopts);
    if (!res.status.ok()) {
      std::fprintf(stderr, "zipf query failed: %s\n",
                   res.status.ToString().c_str());
      std::exit(1);
    }
    if (rows_sink == nullptr) return;
    *rows_sink += res.metrics.RowsShipped();
    stats.latency_sum += res.latency;
    stats.reoptimizations += res.metrics.reoptimizations;
    ++stats.queries;
    std::set<std::string> rows;
    for (const auto& row : res.rows) rows.insert(SerializeBindings({row}));
    stats.row_sets.push_back(std::move(rows));
  };
  auto measure = [&](uint64_t* rows_out, uint64_t* bytes_out) {
    const uint64_t msg0 = net.network()->stats().messages_sent;
    const uint64_t bytes0 = net.network()->stats().bytes_sent;
    for (size_t r = 0; r < rounds; ++r) {
      for (const auto& q : queries) run_query(q, rows_out);
    }
    *bytes_out += net.network()->stats().bytes_sent - bytes0;
    stats.messages += net.network()->stats().messages_sent - msg0;
  };
  // Warm-up: one pass per query populates the issuer's sketch cache (and
  // extent caches) so the measured phases compare steady-state planning,
  // not first-touch fetch costs. Greedy gets the same pass for symmetry.
  for (const auto& q : queries) run_query(q, nullptr);
  measure(&stats.rows, &stats.bytes);
  // Drift: grow the cold extents, then re-measure against stale sketches.
  if (!net.InsertTriples(0, MakeDriftTriples(entities * 2)).ok()) {
    std::fprintf(stderr, "drift load failed\n");
    std::exit(1);
  }
  net.Settle();
  measure(&stats.drift_rows, &stats.drift_bytes);
  auto loads = ComputeRequestLoadStats(net.overlay_peers());
  stats.imbalance = loads.max_over_mean;
  stats.gini = loads.gini;
  return stats;
}

/// Mean relative error of the extent-cardinality estimates a mode plans
/// with, against ground truth on the pre-drift data. Cost/adaptive plan
/// from KMV sketches; greedy has no statistics, so its implicit prior is
/// "every extent is average-sized".
double ZipfEstError(size_t entities, double zipf_s, bool sketched) {
  TripleStore store;
  for (const Triple& t : MakeZipfTriples(entities, zipf_s)) {
    if (!store.Insert(t).ok()) std::exit(1);
  }
  StoreSketch sketch = StoreSketch::Build(store);
  double err_sum = 0;
  size_t n = 0;
  for (size_t k = 0; k < kZipfPreds; ++k) {
    TriplePattern p(Term::Var("x"), Term::Uri("z:p" + std::to_string(k)),
                    Term::Var("o"));
    double truth = 0;
    for (const Triple& t : store.All()) {
      if (t.predicate().value() == p.predicate().value()) ++truth;
    }
    double est = sketched ? sketch.EstimatePattern(p).rows
                          : double(store.size()) / double(kZipfPreds);
    err_sum += std::fabs(est - truth) / std::max(1.0, truth);
    ++n;
  }
  return n == 0 ? 0 : err_sum / double(n);
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_conjunctive");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
  const size_t kEntities = EnvOr("GV_ENTITIES", quick ? 80 : 400);
  const size_t kSelectivity = EnvOr("GV_SELECTIVITY", 20);
  const size_t kRounds = EnvOr("GV_QUERIES", quick ? 2 : 8);
  const uint64_t kSeed = EnvOr("GV_SEED", 42);

  std::printf("bind-join pushdown vs collect-then-join\n");
  std::printf("  entities=%zu selectivity=1/%zu rounds=%zu seed=%llu\n",
              kEntities, kSelectivity, kRounds, (unsigned long long)kSeed);

  ModeStats bind = RunMode(true, kEntities, kSelectivity, kRounds, kSeed);
  ModeStats collect = RunMode(false, kEntities, kSelectivity, kRounds, kSeed);

  // Differential gate: identical result sets, query by query.
  if (bind.row_sets != collect.row_sets) {
    std::fprintf(stderr, "DIFFERENTIAL MISMATCH: bind-join result sets "
                         "differ from collect-then-join\n");
    return 1;
  }

  const double row_ratio =
      bind.rows_shipped == 0
          ? 0
          : double(collect.rows_shipped) / double(bind.rows_shipped);
  std::printf("\n  %-24s %12s %12s\n", "metric", "bind-join", "collect");
  std::printf("  %-24s %12llu %12llu\n", "rows shipped",
              (unsigned long long)bind.rows_shipped,
              (unsigned long long)collect.rows_shipped);
  std::printf("  %-24s %12llu %12llu\n", "messages",
              (unsigned long long)bind.messages,
              (unsigned long long)collect.messages);
  std::printf("  %-24s %12llu %12llu\n", "bytes",
              (unsigned long long)bind.bytes,
              (unsigned long long)collect.bytes);
  std::printf("  %-24s %12.3f %12.3f\n", "mean latency (s)",
              bind.MeanLatency(), collect.MeanLatency());
  using gridvine::bench::CountPercentile;
  std::printf("  %-24s %12.0f %12.0f\n", "hops p50 (traced)",
              CountPercentile(bind.hops, 0.50),
              CountPercentile(collect.hops, 0.50));
  std::printf("  %-24s %12.0f %12.0f\n", "hops p99 (traced)",
              CountPercentile(bind.hops, 0.99),
              CountPercentile(collect.hops, 0.99));
  std::printf("  %-24s %12.0f %12.0f\n", "retries p99 (traced)",
              CountPercentile(bind.retries, 0.99),
              CountPercentile(collect.retries, 0.99));
  std::printf("\n  rows-shipped improvement: %.1fx (acceptance floor 3x)\n",
              row_ratio);
  std::printf("  differential check: %zu queries, result sets identical\n",
              bind.row_sets.size());

  std::printf("  bind-join ");
  bind.cp.Print("");
  std::printf("  collect   ");
  collect.cp.Print("");

  std::vector<std::pair<std::string, double>> bind_row = {
      {"rows_shipped", double(bind.rows_shipped)},
      {"messages", double(bind.messages)},
      {"bytes", double(bind.bytes)},
      {"mean_latency_s", bind.MeanLatency()},
      {"hops_p50", CountPercentile(bind.hops, 0.50)},
      {"hops_p90", CountPercentile(bind.hops, 0.90)},
      {"hops_p99", CountPercentile(bind.hops, 0.99)},
      {"retries_p99", CountPercentile(bind.retries, 0.99)}};
  bind.cp.AppendShares(&bind_row);
  json.Add("bind_join", std::move(bind_row));
  std::vector<std::pair<std::string, double>> collect_row = {
      {"rows_shipped", double(collect.rows_shipped)},
      {"messages", double(collect.messages)},
      {"bytes", double(collect.bytes)},
      {"mean_latency_s", collect.MeanLatency()},
      {"hops_p50", CountPercentile(collect.hops, 0.50)},
      {"hops_p90", CountPercentile(collect.hops, 0.90)},
      {"hops_p99", CountPercentile(collect.hops, 0.99)},
      {"retries_p99", CountPercentile(collect.retries, 0.99)}};
  collect.cp.AppendShares(&collect_row);
  json.Add("collect", std::move(collect_row));
  json.Add("summary", {{"rows_shipped_ratio", row_ratio},
                       {"message_delta",
                        double(collect.messages) - double(bind.messages)},
                       {"differential_ok", 1.0}});

  // --- Zipf skew sweep -------------------------------------------------------
  const double kZipfS = [] {
    const char* v = std::getenv("GV_ZIPF");
    return v != nullptr ? std::strtod(v, nullptr) : 1.2;
  }();
  const size_t kZipfEntities = EnvOr("GV_ZIPF_ENTITIES", quick ? 120 : 400);
  const size_t kZipfRounds = EnvOr("GV_ZIPF_ROUNDS", quick ? 2 : 4);

  std::printf("\nZipf(%.1f) skew sweep: greedy vs cost-based vs adaptive\n",
              kZipfS);
  std::printf("  entities=%zu preds=%zu rounds=%zu seed=%llu\n", kZipfEntities,
              kZipfPreds, kZipfRounds, (unsigned long long)kSeed);

  const ZipfModeCfg kModes[] = {
      {"zipf_greedy", 0, /*stats=*/false, /*divergence=*/0.0},
      {"zipf_cost", 1, /*stats=*/true, /*divergence=*/0.0},
      {"zipf_adaptive", 2, /*stats=*/true, /*divergence=*/2.0},
  };
  ZipfStats zs[3];
  for (int m = 0; m < 3; ++m) {
    zs[m] = RunZipfMode(kModes[m], kZipfEntities, kZipfS, kZipfRounds, kSeed);
  }
  // Equal recall, phase by phase: all three modes must agree on every
  // result set (drift data joins nothing, so the drift phase agrees too).
  for (int m = 1; m < 3; ++m) {
    if (zs[m].row_sets != zs[0].row_sets) {
      std::fprintf(stderr, "DIFFERENTIAL MISMATCH: %s result sets differ "
                           "from greedy\n",
                   kModes[m].row);
      return 1;
    }
  }

  std::printf("\n  %-24s %12s %12s %12s\n", "metric", "greedy", "cost",
              "adaptive");
  auto zrow = [&](const char* label, auto get) {
    std::printf("  %-24s %12.0f %12.0f %12.0f\n", label, get(zs[0]),
                get(zs[1]), get(zs[2]));
  };
  zrow("rows shipped", [](const ZipfStats& s) { return double(s.rows); });
  zrow("bytes", [](const ZipfStats& s) { return double(s.bytes); });
  zrow("messages", [](const ZipfStats& s) { return double(s.messages); });
  zrow("drift rows shipped",
       [](const ZipfStats& s) { return double(s.drift_rows); });
  zrow("drift bytes", [](const ZipfStats& s) { return double(s.drift_bytes); });
  zrow("re-optimizations",
       [](const ZipfStats& s) { return double(s.reoptimizations); });
  std::printf("  %-24s %12.3f %12.3f %12.3f\n", "replica max/mean",
              zs[0].imbalance, zs[1].imbalance, zs[2].imbalance);

  const double greedy_over_cost_rows =
      zs[1].rows == 0 ? 0 : double(zs[0].rows) / double(zs[1].rows);
  const double greedy_over_cost_bytes =
      zs[1].bytes == 0 ? 0 : double(zs[0].bytes) / double(zs[1].bytes);
  const double cost_over_adaptive_drift =
      zs[2].drift_rows == 0
          ? 0
          : double(zs[1].drift_rows) / double(zs[2].drift_rows);
  std::printf("\n  greedy/cost rows: %.2fx  bytes: %.2fx "
              "(acceptance floor 2x)\n",
              greedy_over_cost_rows, greedy_over_cost_bytes);
  std::printf("  static-cost/adaptive drift rows: %.2fx "
              "(adaptive must stay >= 0.95)\n",
              cost_over_adaptive_drift);

  for (int m = 0; m < 3; ++m) {
    const ZipfStats& s = zs[m];
    json.Add(kModes[m].row,
             {{"mode", double(kModes[m].mode)},
              {"rows_shipped", double(s.rows)},
              {"bytes", double(s.bytes)},
              {"messages", double(s.messages)},
              {"mean_latency_s",
               s.queries == 0 ? 0 : s.latency_sum / double(s.queries)},
              {"est_error",
               ZipfEstError(kZipfEntities, kZipfS, kModes[m].stats)},
              {"replica_imbalance", s.imbalance},
              {"load_gini", s.gini},
              {"drift_rows_shipped", double(s.drift_rows)},
              {"drift_bytes", double(s.drift_bytes)},
              {"reoptimizations", double(s.reoptimizations)}});
  }
  json.Add("zipf_summary",
           {{"zipf_s", kZipfS},
            {"greedy_over_cost_rows", greedy_over_cost_rows},
            {"greedy_over_cost_bytes", greedy_over_cost_bytes},
            {"cost_over_adaptive_drift_rows", cost_over_adaptive_drift},
            {"differential_ok", 1.0}});
  json.Finish();
  return 0;
}
