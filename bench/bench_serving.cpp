// Experiment E9 — serving throughput under a flash crowd.
//
// The paper's deployment measures one query at a time; this bench instead
// drives an open-loop, bursty arrival process (Poisson base rate with
// periodic burst windows) of triple-pattern and bind-join conjunctive
// queries whose hot keys follow a Zipf law over categories — the classic
// flash-crowd shape. Queries enter through per-gateway QueryFrontends; the
// responder-side service model makes row matching cost simulated time, so
// the hot key region's owner is a real bottleneck server.
//
// Four modes over the identical workload and seed: serving features off,
// extent cache only, cross-query batching only, and cache + batching. The
// bench reports sustained qps (simulated time), cache hit rate and latency
// percentiles per mode, and cross-checks equal recall: every arrival must
// return bit-identical rows in all four modes.
//
//   $ ./bench/bench_serving                       # full run
//   $ GV_BENCH_QUICK=1 ./bench/bench_serving      # CI smoke

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/trace.h"
#include "gridvine/gridvine_network.h"
#include "gridvine/query_frontend.h"
#include "store/binding_codec.h"
#include "trace_stats.h"

using namespace gridvine;

namespace {

size_t EnvOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? size_t(std::strtoull(v, nullptr, 10)) : fallback;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = size_t(p * double(sorted.size() - 1));
  return sorted[idx];
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr size_t kCategories = 24;
constexpr size_t kGateways = 8;

/// One precomputed arrival; identical across all modes.
struct Arrival {
  double at = 0;
  size_t gateway = 0;
  size_t category = 0;
  bool conjunctive = false;
};

struct ModeResult {
  std::string name;
  double qps = 0;
  double hit_rate = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  uint64_t shed = 0;
  uint64_t messages = 0;
  uint64_t batch_items = 0;
  double wall_s = 0;
  std::vector<uint64_t> row_hashes;  // per arrival, for the recall check
  gridvine::bench::CriticalPathAgg cp;
};

std::vector<Triple> MakeCorpus(size_t entities) {
  std::vector<Triple> triples;
  for (size_t e = 0; e < entities; ++e) {
    Term subj = Term::Uri("x:e" + std::to_string(e));
    triples.emplace_back(subj, Term::Uri("x:type"),
                         Term::Literal("cat" + std::to_string(e % kCategories)));
    triples.emplace_back(subj, Term::Uri("x:size"),
                         Term::Literal(std::to_string(e % 5)));
  }
  return triples;
}

/// Open-loop bursty arrivals: Poisson at `base_rate`, 6x during a 1 s burst
/// window opening every 5 s — and Zipf(kCategories, 1.1) category skew.
std::vector<Arrival> MakeWorkload(size_t count, double base_rate,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    double phase = t - 5.0 * std::floor(t / 5.0);
    double rate = phase < 1.0 ? base_rate * 6.0 : base_rate;
    t += rng.Exponential(rate);
    Arrival a;
    a.at = t;
    a.gateway = size_t(rng.UniformInt(0, int64_t(kGateways) - 1));
    a.category = rng.Zipf(kCategories, 1.1);  // 0-based rank
    a.conjunctive = rng.Bernoulli(0.2);
    out.push_back(a);
  }
  return out;
}

ModeResult RunMode(const std::string& name, bool cache, bool batch,
                   size_t peers, size_t entities, size_t concurrency,
                   const std::vector<Arrival>& workload) {
  GridVineNetwork::Options o;
  o.num_peers = peers;
  o.key_depth = 14;
  o.seed = 20260809;
  o.latency = GridVineNetwork::LatencyKind::kUniform;
  o.latency_param = 0.02;
  o.peer.cache.enabled = cache;
  o.peer.batch.enabled = batch;
  // The service model is on in every mode (including "off"): responders pay
  // simulated time per request and per row, so the hot key region is a
  // saturable server and throughput is a property of the serving stack, not
  // of the transport alone.
  o.peer.service.enabled = true;
  o.peer.service.per_request = 4e-3;
  o.peer.service.per_item = 4e-4;
  o.peer.service.per_row = 2e-4;
  o.peer.service.per_hit = 1e-4;
  o.peer.frontend.max_concurrent = concurrency;
  // The recall cross-check needs every arrival answered: queue deep enough
  // that the burst backlog parks instead of shedding.
  o.peer.frontend.max_queue = workload.size();
  GridVineNetwork net(o);
  if (!net.InsertTriples(0, MakeCorpus(entities)).ok()) std::abort();
  net.Settle();
  // Trace the whole serving run: tracing is a pure observer (the recall
  // cross-check still holds), and the op.serve trees carry the admission
  // queue spans the critical-path attribution needs.
  net.tracer()->Enable(/*capacity_per_part=*/1 << 19);

  struct Done {
    double at = 0;
    double latency = 0;
    bool ok = false;
    uint64_t row_hash = 0;
  };
  std::vector<Done> done(workload.size());

  auto wall0 = std::chrono::steady_clock::now();
  // The data-load settle advanced the clock; the arrival process runs
  // relative to wherever it landed.
  const double base = net.Now();
  for (size_t i = 0; i < workload.size(); ++i) {
    const Arrival& a = workload[i];
    Done* d = &done[i];
    GridVinePeer* gw = net.peer(1 + a.gateway);
    Simulator* sim = net.sim();
    net.sim()->ScheduleAt(base + a.at, [d, gw, sim, a] {
      const double issued = sim->Now();
      std::string cat = "cat" + std::to_string(a.category);
      if (a.conjunctive) {
        ConjunctiveQuery cq(
            {"x", "l"},
            {TriplePattern(Term::Var("x"), Term::Uri("x:type"),
                           Term::Literal(cat)),
             TriplePattern(Term::Var("x"), Term::Uri("x:size"),
                           Term::Var("l"))});
        GridVinePeer::QueryOptions opts;
        opts.bind_join = true;
        gw->frontend()->SubmitConjunctive(
            cq, opts, [d, sim, issued](GridVinePeer::ConjunctiveResult r) {
              d->at = sim->Now();
              d->latency = d->at - issued;
              d->ok = r.status.ok();
              std::vector<std::string> rows;
              for (const auto& row : r.rows)
                rows.push_back(SerializeBindings({row}));
              std::sort(rows.begin(), rows.end());
              uint64_t h = 1469598103934665603ULL;
              for (const auto& s : rows) h = Fnv1a(h, s);
              d->row_hash = h;
            });
      } else {
        TriplePatternQuery q("x",
                             TriplePattern(Term::Var("x"), Term::Uri("x:type"),
                                           Term::Literal(cat)));
        gw->frontend()->Submit(
            q, {}, [d, sim, issued](GridVinePeer::QueryResult r) {
              d->at = sim->Now();
              d->latency = d->at - issued;
              d->ok = r.status.ok();
              std::vector<std::string> rows;
              for (const auto& item : r.items)
                rows.push_back(item.value.value());
              std::sort(rows.begin(), rows.end());
              uint64_t h = 1469598103934665603ULL;
              for (const auto& s : rows) h = Fnv1a(h, s);
              d->row_hash = h;
            });
      }
    });
  }
  net.Settle();

  ModeResult res;
  res.name = name;
  res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall0)
                   .count();

  double first_arrival = base + (workload.empty() ? 0 : workload.front().at);
  double last_completion = first_arrival;
  size_t completed = 0;
  std::vector<double> lat;
  lat.reserve(done.size());
  res.row_hashes.reserve(done.size());
  for (const Done& d : done) {
    res.row_hashes.push_back(d.row_hash);
    if (!d.ok) continue;
    ++completed;
    lat.push_back(d.latency * 1e3);
    last_completion = std::max(last_completion, d.at);
  }
  std::sort(lat.begin(), lat.end());
  double span = last_completion - first_arrival;
  res.qps = span > 0 ? double(completed) / span : 0;
  res.p50_ms = Percentile(lat, 0.50);
  res.p95_ms = Percentile(lat, 0.95);
  res.p99_ms = Percentile(lat, 0.99);

  uint64_t hits = 0, misses = 0;
  for (size_t p = 0; p < net.size(); ++p) {
    if (net.peer(p)->cache() != nullptr) {
      hits += net.peer(p)->cache()->stats().hits;
      misses += net.peer(p)->cache()->stats().misses;
    }
    const GridVinePeer& peer = *net.peer(p);
    if (peer.frontend() != nullptr) res.shed += peer.frontend()->stats().shed;
    res.batch_items += net.peer(p)->counters().batch_items;
  }
  res.hit_rate = (hits + misses) > 0 ? double(hits) / double(hits + misses) : 0;
  res.messages = net.network()->stats().messages_sent;
  // Latency attribution over every op.serve tree still in the ring. Under
  // ring eviction the oldest trees lose spans; the aggregate stays useful
  // because eviction is uncorrelated with where a query's time went.
  {
    TraceAnalyzer an(net.tracer()->Snapshot());
    for (const auto& s : an.spans()) {
      if (s.parent_id == 0 && s.name == "op.serve") {
        res.cp.Add(an.CriticalPathFor(s.trace_id));
      }
    }
  }
  if (completed + res.shed != done.size()) {
    std::fprintf(stderr, "E9: %zu arrivals unresolved\n",
                 done.size() - completed - size_t(res.shed));
    std::abort();
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_serving");
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
  const size_t kPeers = EnvOr("GV_PEERS", quick ? 24 : 64);
  const size_t kArrivals = EnvOr("GV_ARRIVALS", quick ? 400 : 2000);
  const size_t kEntities = EnvOr("GV_ENTITIES", quick ? 240 : 480);
  const size_t kConcurrency = EnvOr("GV_CONCURRENCY", 8);
  const double kBaseRate = 150.0;

  std::printf("E9: flash-crowd serving throughput\n");
  std::printf("  peers=%zu arrivals=%zu entities=%zu gateways=%zu "
              "concurrency=%zu zipf(s=1.1,n=%zu)\n",
              kPeers, kArrivals, kEntities, kGateways, kConcurrency,
              kCategories);

  const auto workload = MakeWorkload(kArrivals, kBaseRate, 4242);

  struct ModeSpec {
    const char* name;
    bool cache;
    bool batch;
  };
  const ModeSpec specs[] = {{"off", false, false},
                            {"cache", true, false},
                            {"batch", false, true},
                            {"cache_batch", true, true}};
  std::vector<ModeResult> results;
  std::printf("\n  %-12s %9s %9s %9s %9s %9s %7s %10s\n", "mode", "qps",
              "hit_rate", "p50_ms", "p95_ms", "p99_ms", "shed", "messages");
  for (const ModeSpec& spec : specs) {
    results.push_back(RunMode(spec.name, spec.cache, spec.batch, kPeers,
                              kEntities, kConcurrency, workload));
    const ModeResult& r = results.back();
    std::printf("  %-12s %9.1f %9.3f %9.1f %9.1f %9.1f %7llu %10llu\n",
                r.name.c_str(), r.qps, r.hit_rate, r.p50_ms, r.p95_ms,
                r.p99_ms, (unsigned long long)r.shed,
                (unsigned long long)r.messages);
  }
  std::printf("\n");
  for (const ModeResult& r : results) {
    std::printf("  %-12s ", r.name.c_str());
    r.cp.Print("");
  }

  // Equal recall: every arrival returned bit-identical rows in every mode.
  bool recall_equal = true;
  for (size_t m = 1; m < results.size(); ++m) {
    if (results[m].row_hashes != results[0].row_hashes) {
      recall_equal = false;
      std::fprintf(stderr, "E9: mode %s changed results!\n",
                   results[m].name.c_str());
    }
  }
  const ModeResult& off = results[0];
  const ModeResult& full = results[3];
  const double speedup = off.qps > 0 ? full.qps / off.qps : 0;
  std::printf("\n  equal recall across modes: %s\n",
              recall_equal ? "yes" : "NO — BUG");
  std::printf("  cache+batch vs off: %.2fx qps, p99 %.1f -> %.1f ms\n",
              speedup, off.p99_ms, full.p99_ms);

  for (const ModeResult& r : results) {
    std::vector<std::pair<std::string, double>> row = {
        {"qps", r.qps},
        {"hit_rate", r.hit_rate},
        {"p50_ms", r.p50_ms},
        {"p95_ms", r.p95_ms},
        {"p99_ms", r.p99_ms},
        {"shed", double(r.shed)},
        {"messages", double(r.messages)},
        {"batch_items", double(r.batch_items)},
        {"peers", double(kPeers)},
        {"concurrency", double(kConcurrency)},
        {"wall_s", r.wall_s}};
    r.cp.AppendShares(&row);
    json.Add(r.name, std::move(row));
  }
  json.Add("summary", {{"qps_speedup", speedup},
                       {"equal_recall", recall_equal ? 1.0 : 0.0},
                       {"qps", full.qps},
                       {"hit_rate", full.hit_rate},
                       {"p99_ms", full.p99_ms},
                       {"peers", double(kPeers)},
                       {"concurrency", double(kConcurrency)}});
  json.Finish();
  return recall_equal ? 0 : 1;
}
