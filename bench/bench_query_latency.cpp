// Experiment E1 — the paper's Section 2.3 deployment claim:
//
//   "A recent deployment of GridVine on 340 machines scattered around the
//    world sharing 17000 triples showed that 40% of the 23000 triple pattern
//    queries we submitted were answered within one second only, and 75%
//    within five seconds."
//
// We rebuild that deployment on the simulator: 340 peers, a WAN latency
// model with a heavy log-normal tail (PlanetLab-like), ~17k triples from the
// 50-schema bioinformatic workload, and 23k triple-pattern queries issued
// from random peers. The harness prints the latency CDF and the two
// fractions the paper reports.
//
//   $ ./bench/bench_query_latency            # full 23000 queries
//   $ GV_QUERIES=2000 ./bench/bench_query_latency   # quicker run

// A second section (E1b) replays the same workload on a 100k-peer
// deployment driven by the sharded engine — the scale target of the
// compact-state work — and records latency, per-peer memory and event
// throughput in an extra JSON row.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "trace_stats.h"
#include "workload/bio_workload.h"
#include "gridvine/gridvine_network.h"

using namespace gridvine;

namespace {

size_t EnvOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? size_t(std::strtoull(v, nullptr, 10)) : fallback;
}

double Fraction(const std::vector<double>& sorted, double bound) {
  size_t n = size_t(std::upper_bound(sorted.begin(), sorted.end(), bound) -
                    sorted.begin());
  return sorted.empty() ? 0 : double(n) / double(sorted.size());
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = size_t(p * double(sorted.size() - 1));
  return sorted[idx];
}

struct IssuedQuery {
  TriplePatternQuery query;
  size_t issuer = 0;
};

/// Draws `n` queries and their issuers from Rng(seed) in the order a loop
/// issuing them one at a time would: schema, query, issuer. Generating
/// them up front keeps the (slow) workload generator off the clock.
std::vector<IssuedQuery> MakeQueries(const BioWorkload& workload, size_t n,
                                     size_t peers, uint64_t seed) {
  Rng rng(seed);
  std::vector<IssuedQuery> out;
  out.reserve(n);
  for (size_t q = 0; q < n; ++q) {
    size_t schema =
        size_t(rng.UniformInt(0, int64_t(workload.schemas().size()) - 1));
    auto gq = workload.MakeQuery(schema, &rng);
    size_t issuer = size_t(rng.UniformInt(0, int64_t(peers) - 1));
    out.push_back({std::move(gq.query), issuer});
  }
  return out;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_query_latency");
  const size_t kPeers = EnvOr("GV_PEERS", 340);
  const size_t kQueries = EnvOr("GV_QUERIES", 23000);

  GridVineNetwork::Options options;
  options.num_peers = kPeers;
  options.key_depth = 16;
  options.seed = 20070923;
  options.latency = GridVineNetwork::LatencyKind::kWan;
  // Heavy-tailed WAN calibration (PlanetLab-era, 2007 Java stack): the
  // variable part of each one-way message delay is log-normal with median
  // ~110 ms and a fat tail (sigma = 1.3), on a 15 ms propagation floor.
  options.latency_param = 0.015;
  options.wan_mu = -2.5;
  options.wan_sigma = 1.2;
  // ~7% of messages cross an overloaded host and pick up seconds of queue
  // delay — the PlanetLab pathology behind the paper's fat 5-second tail.
  options.wan_straggler_prob = 0.09;
  options.wan_straggler_mean = 6.0;
  options.peer.query_timeout = 30.0;
  options.overlay.retry.base_timeout = 30.0;
  GridVineNetwork net(options);

  BioWorkload::Options wl;
  wl.num_schemas = 50;
  wl.num_entities = 500;
  wl.entities_per_schema = 42;  // ~17k triples at ~8 attrs/schema
  wl.seed = 7;
  BioWorkload workload(wl);

  std::printf("E1: triple-pattern query latency (paper Section 2.3)\n");
  std::printf("  peers=%zu triples=%zu queries=%zu\n", kPeers,
              workload.TotalTriples(), kQueries);

  // Deployment: schema owners spread across the network, data inserted.
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    size_t owner = (s * 7) % net.size();
    if (!net.InsertSchema(owner, workload.schemas()[s]).ok()) return 1;
    if (!net.InsertTriples(owner, workload.TriplesFor(s)).ok()) return 1;
  }
  std::printf("  data inserted; issuing queries...\n");

  // Tracing is on for the whole query phase: span ids come from a plain
  // counter, so a traced run is bit-identical to an untraced one. The ring is
  // cleared per query, making each snapshot exactly one query's causal tree.
  // Only the SearchFor calls are timed; each trace is analysed after its
  // query's clock stops.
  net.tracer()->Enable(1 << 16);

  const std::vector<IssuedQuery> queries =
      MakeQueries(workload, kQueries, net.size(), 99);
  double e1_run_s = 0;
  std::vector<double> latencies;
  latencies.reserve(kQueries);
  std::vector<size_t> hops;
  std::vector<size_t> retries;
  hops.reserve(kQueries);
  retries.reserve(kQueries);
  size_t failed = 0;
  size_t empty = 0;
  gridvine::bench::CriticalPathAgg cp_agg;
  for (const IssuedQuery& iq : queries) {
    net.tracer()->Clear();
    const auto t0 = std::chrono::steady_clock::now();
    auto res = net.SearchFor(iq.issuer, iq.query);
    e1_run_s += SecondsSince(t0);
    if (!res.status.ok()) {
      ++failed;
      continue;
    }
    if (res.items.empty()) ++empty;
    latencies.push_back(res.latency);
    TraceAnalyzer an(net.tracer()->Snapshot());
    auto ts = gridvine::bench::HopsAndRetries(an.spans(), res.trace_id);
    hops.push_back(ts.hops);
    retries.push_back(ts.retries);
    cp_agg.Add(an.CriticalPathFor(res.trace_id));
  }
  std::sort(latencies.begin(), latencies.end());
  const double e1_qps = e1_run_s > 0 ? double(kQueries) / e1_run_s : 0;

  std::printf("\n  %-28s %10s %10s\n", "metric", "paper", "measured");
  std::printf("  %-28s %10s %9.0f%%\n", "answered within 1 s", "40%",
              Fraction(latencies, 1.0) * 100);
  std::printf("  %-28s %10s %9.0f%%\n", "answered within 5 s", "75%",
              Fraction(latencies, 5.0) * 100);
  std::printf("\n  latency percentiles (s): p10=%.2f p25=%.2f p50=%.2f "
              "p75=%.2f p90=%.2f p99=%.2f\n",
              Percentile(latencies, 0.10), Percentile(latencies, 0.25),
              Percentile(latencies, 0.50), Percentile(latencies, 0.75),
              Percentile(latencies, 0.90), Percentile(latencies, 0.99));
  using gridvine::bench::CountPercentile;
  std::printf("  per-query hops (from traces): p50=%.0f p90=%.0f p99=%.0f\n",
              CountPercentile(hops, 0.50), CountPercentile(hops, 0.90),
              CountPercentile(hops, 0.99));
  std::printf("  per-query retries (from traces): p50=%.0f p90=%.0f "
              "p99=%.0f\n",
              CountPercentile(retries, 0.50), CountPercentile(retries, 0.90),
              CountPercentile(retries, 0.99));
  cp_agg.Print();
  std::printf("  queries failed: %zu, empty answers: %zu\n", failed, empty);
  std::printf("  network traffic: %llu messages, %.1f MB\n",
              (unsigned long long)net.network()->stats().messages_sent,
              double(net.network()->stats().bytes_sent) / 1e6);
  std::vector<std::pair<std::string, double>> e1_row = {
      {"within_1s", Fraction(latencies, 1.0)},
      {"within_5s", Fraction(latencies, 5.0)},
      {"p50_s", Percentile(latencies, 0.50)},
      {"p90_s", Percentile(latencies, 0.90)},
      {"p99_s", Percentile(latencies, 0.99)},
      {"failed", double(failed)},
      {"empty", double(empty)},
      {"messages", double(net.network()->stats().messages_sent)},
      {"hops_p50", CountPercentile(hops, 0.50)},
      {"hops_p90", CountPercentile(hops, 0.90)},
      {"hops_p99", CountPercentile(hops, 0.99)},
      {"retries_p50", CountPercentile(retries, 0.50)},
      {"retries_p90", CountPercentile(retries, 0.90)},
      {"retries_p99", CountPercentile(retries, 0.99)},
      {"queries_per_sec", e1_qps}};
  cp_agg.AppendShares(&e1_row);
  json.Add("latency", std::move(e1_row));

  // ---- E1b: the same workload at 100k peers on the sharded engine ----------
  //
  // Tracing works in sharded mode too: every shard records into a private
  // ring and net.tracer() is the merged causal view, so this section gets
  // the same per-query hop counts and critical-path attribution as E1.
  const bool quick = std::getenv("GV_BENCH_QUICK") != nullptr;
  const size_t kScalePeers = EnvOr("GV_SCALE_PEERS", quick ? 20000 : 100000);
  const size_t kScaleQueries = EnvOr("GV_SCALE_QUERIES", quick ? 100 : 2000);
  const uint32_t kShards = 4;

  GridVineNetwork::Options sopt = options;
  sopt.num_peers = kScalePeers;
  sopt.shards = kShards;
  std::printf("\nE1b: full query path at scale (sharded engine)\n");
  std::printf("  peers=%zu shards=%u queries=%zu\n", kScalePeers, kShards,
              kScaleQueries);

  const auto t0 = std::chrono::steady_clock::now();
  GridVineNetwork snet(sopt);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    size_t owner = (s * 7) % snet.size();
    if (!snet.InsertSchema(owner, workload.schemas()[s]).ok()) return 1;
    if (!snet.InsertTriples(owner, workload.TriplesFor(s)).ok()) return 1;
  }
  const double build_s = SecondsSince(t0);
  const size_t events_before = snet.engine()->events_executed();

  snet.tracer()->Enable(1 << 16);

  const std::vector<IssuedQuery> squeries =
      MakeQueries(workload, kScaleQueries, snet.size(), 99);
  double run_s = 0;  // SearchFor calls only, as in E1
  std::vector<double> slat;
  slat.reserve(kScaleQueries);
  std::vector<size_t> shops;
  size_t sfailed = 0;
  size_t sempty = 0;
  gridvine::bench::CriticalPathAgg scp_agg;
  for (const IssuedQuery& iq : squeries) {
    snet.tracer()->Clear();
    const auto q0 = std::chrono::steady_clock::now();
    auto res = snet.SearchFor(iq.issuer, iq.query);
    run_s += SecondsSince(q0);
    if (!res.status.ok()) {
      ++sfailed;
      continue;
    }
    if (res.items.empty()) ++sempty;
    slat.push_back(res.latency);
    TraceAnalyzer an(snet.tracer()->Snapshot());
    shops.push_back(
        gridvine::bench::HopsAndRetries(an.spans(), res.trace_id).hops);
    scp_agg.Add(an.CriticalPathFor(res.trace_id));
  }
  std::sort(slat.begin(), slat.end());

  const size_t events = snet.engine()->events_executed() - events_before;
  const double events_per_sec = run_s > 0 ? double(events) / run_s : 0;
  const double bytes_per_peer =
      double(snet.MemoryFootprint()) / double(kScalePeers);
  const NetworkStats sstats = snet.engine()->AggregateStats();

  std::printf("  answered within 1 s: %.0f%%, within 5 s: %.0f%%\n",
              Fraction(slat, 1.0) * 100, Fraction(slat, 5.0) * 100);
  std::printf("  latency (s): p50=%.2f p90=%.2f p99=%.2f  failed=%zu "
              "empty=%zu\n",
              Percentile(slat, 0.50), Percentile(slat, 0.90),
              Percentile(slat, 0.99), sfailed, sempty);
  std::printf("  build=%.1fs  queries=%.1fs  %.0f events/s  %.0f bytes/peer  "
              "%llu messages\n",
              build_s, run_s, events_per_sec, bytes_per_peer,
              (unsigned long long)sstats.messages_sent);
  scp_agg.Print();
  std::vector<std::pair<std::string, double>> e1b_row = {
      {"peers", double(kScalePeers)},
      {"shards", double(kShards)},
      {"within_1s", Fraction(slat, 1.0)},
      {"within_5s", Fraction(slat, 5.0)},
      {"p50_s", Percentile(slat, 0.50)},
      {"p90_s", Percentile(slat, 0.90)},
      {"p99_s", Percentile(slat, 0.99)},
      {"failed", double(sfailed)},
      {"empty", double(sempty)},
      {"messages", double(sstats.messages_sent)},
      {"bytes_per_peer", bytes_per_peer},
      {"events_per_sec", events_per_sec},
      {"queries_per_sec", run_s > 0 ? double(kScaleQueries) / run_s : 0},
      {"build_s", build_s},
      {"run_s", run_s},
      {"hops_p50", CountPercentile(shops, 0.50)},
      {"hops_p90", CountPercentile(shops, 0.90)}};
  scp_agg.AppendShares(&e1b_row);
  json.Add("scale_" + std::to_string(kScalePeers) + "/shards_" +
               std::to_string(kShards),
           std::move(e1b_row));
  json.Finish();
  return 0;
}
