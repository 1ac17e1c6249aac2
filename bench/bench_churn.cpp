// Experiment A2 — lookup availability under churn (paper Section 2.1):
//
//   "The Retrieve and the Update operations provide probabilistic guarantees
//    for data consistency and are efficient even in highly unreliable,
//    dynamic environments."
//
// 64 peers (two replicas per region), exponential on/off churn at several
// intensities. For each churn level we measure lookup success over 400
// queries, (a) with routing-table maintenance running and (b) without.
// Replication absorbs single failures; maintenance keeps routing paths
// alive; both together hold availability high under heavy churn.
//
//   $ ./bench/bench_churn

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.h"
#include "common/stats.h"
#include "sim/churn.h"
#include "pgrid/maintenance.h"
#include "pgrid/pgrid_builder.h"

using namespace gridvine;

namespace {

struct Trial {
  double availability = 0;
  double mean_hops = 0;
  double mean_rtt = 0;
};

Trial Run(double downtime_fraction, bool with_maintenance, uint64_t seed,
          bool retries_on = true) {
  Simulator sim;
  Network net(&sim, std::make_unique<ConstantLatency>(0.03), Rng(seed));
  PGridPeer::Options popts;
  popts.key_depth = 10;
  popts.retry.base_timeout = 1.5;
  popts.retry.max_attempts = retries_on ? 4 : 1;
  std::vector<std::unique_ptr<PGridPeer>> owned;
  std::vector<PGridPeer*> peers;
  for (int i = 0; i < 64; ++i) {
    owned.push_back(std::make_unique<PGridPeer>(
        &sim, &net, Mt64Head<1>(seed * 131 + i)[0], popts));
    peers.push_back(owned.back().get());
  }
  Rng build_rng(seed + 1);
  PGridBuilder::BuildBalanced(peers, &build_rng, /*refs_per_level=*/3);

  std::vector<std::unique_ptr<MaintenanceAgent>> agents;
  if (with_maintenance) {
    MaintenanceAgent::Options mopts;
    mopts.period = 12.0;
    mopts.probe_timeout = 1.0;
    for (auto* p : peers) {
      agents.push_back(std::make_unique<MaintenanceAgent>(
          &sim, p, Rng(seed * 7 + p->id()), mopts));
      agents.back()->Start();
    }
  }

  // Data: one entry per region, present on every replica of the region.
  for (uint64_t k = 0; k < 64; ++k) {
    Key key = Key::FromUint(k * 11, 10);
    for (auto* p : peers) {
      if (p->path().IsPrefixOf(key)) p->InsertLocal(key, "v");
    }
  }

  // Churn: mean session 200 s; downtime scaled to the target offline
  // fraction f = down / (up + down).
  ChurnModel::Options copts;
  copts.mean_session_seconds = 200;
  copts.mean_downtime_seconds =
      downtime_fraction <= 0
          ? 0.001
          : 200 * downtime_fraction / (1 - downtime_fraction);
  copts.pinned = {peers[0]->id()};
  ChurnModel churn(&sim, &net, Rng(seed + 5), copts);
  if (downtime_fraction > 0) churn.Start();

  SampleStats hops, rtt;
  size_t ok = 0;
  const int kQueries = 400;
  for (int q = 0; q < kQueries; ++q) {
    sim.RunUntil(sim.Now() + 5);
    Key key = Key::FromUint(uint64_t(q % 64) * 11, 10);
    bool done = false, got = false;
    peers[0]->Retrieve(key, [&](Result<PGridPeer::Reply> r) {
      done = true;
      if (r.ok() && !r->values.empty()) {
        got = true;
        hops.Add(double(r->hops));
        rtt.Add(r->rtt);
      }
    });
    while (!done && sim.pending() > 0) sim.Run(1);
    if (got) ++ok;
  }
  churn.Stop();
  Trial t;
  t.availability = double(ok) / kQueries;
  t.mean_hops = hops.Mean();
  t.mean_rtt = rtt.Mean();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  gridvine::bench::BenchJson json(argc, argv, "bench_churn");
  std::printf("A2: lookup availability under churn (64 peers, replicated "
              "regions, 400 lookups/cell)\n\n");
  std::printf("  %-18s | %-27s | %-27s\n", "", "maintenance ON",
              "maintenance OFF");
  std::printf("  %-18s | %13s %13s | %13s %13s\n", "offline fraction",
              "availability", "mean hops", "availability", "mean hops");
  for (double f : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    Trial on = Run(f, true, 42);
    Trial off = Run(f, false, 42);
    // Same cell with the reliability layer clamped to one attempt
    // (maintenance on): what churn costs without retry/failover.
    Trial no_retry = Run(f, true, 42, /*retries_on=*/false);
    std::printf("  %-17.0f%% | %12.1f%% %13.2f | %12.1f%% %13.2f\n", f * 100,
                on.availability * 100, on.mean_hops, off.availability * 100,
                off.mean_hops);
    std::string row = "offline_" + std::to_string(int(f * 100));
    json.Add(row + "/maintenance_on", {{"availability", on.availability},
                                       {"mean_hops", on.mean_hops},
                                       {"mean_rtt_s", on.mean_rtt}});
    json.Add(row + "/maintenance_off", {{"availability", off.availability},
                                        {"mean_hops", off.mean_hops},
                                        {"mean_rtt_s", off.mean_rtt}});
    json.Add(row + "/retries_off", {{"availability", no_retry.availability},
                                    {"mean_hops", no_retry.mean_hops},
                                    {"mean_rtt_s", no_retry.mean_rtt}});
  }
  json.Finish();
  std::printf("\n  expectation: availability stays high with maintenance "
              "(dead refs evicted, gaps refilled);\n  without it, stale "
              "refs accumulate and success decays with churn.\n");
  return 0;
}
