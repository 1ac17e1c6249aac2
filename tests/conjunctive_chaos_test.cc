// Conjunctive queries under chaos: loss bursts, duplication and churn
// layered over the overlay while a stream of conjunctive queries runs
// through the plan-driven executor. The invariants mirror the PR 3 drain
// contract, lifted to the executor: every conjunctive op resolves exactly
// once, to OK or Timeout; no executor or pending-query state leaks; message
// conservation and drop attribution still hold.
//
// Plus the network-level differential check: with faults off, bind-join and
// collect-then-join return identical result sets on randomized stores.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault_harness.h"
#include "gridvine/gridvine_network.h"
#include "gridvine/query_frontend.h"
#include "selforg_soak_harness.h"
#include "sim/churn.h"
#include "store/binding_codec.h"

namespace gridvine {
namespace {

TriplePattern P(Term s, Term p, Term o) {
  return TriplePattern(std::move(s), std::move(p), std::move(o));
}

/// Randomized-but-seeded triples: every entity has a type and a size; some
/// link to another entity.
std::vector<Triple> MakeTriples(uint64_t seed, int entities) {
  Rng rng(seed * 977 + 3);
  std::vector<Triple> triples;
  for (int e = 0; e < entities; ++e) {
    Term subj = Term::Uri("x:e" + std::to_string(e));
    triples.emplace_back(
        subj, Term::Uri("x:type"),
        Term::Literal(rng.Bernoulli(0.25) ? "gadget" : "widget"));
    triples.emplace_back(subj, Term::Uri("x:size"),
                         Term::Literal(std::to_string(rng.UniformInt(1, 4))));
    if (rng.Bernoulli(0.5)) {
      triples.emplace_back(
          subj, Term::Uri("x:link"),
          Term::Uri("x:e" + std::to_string(rng.UniformInt(0, entities - 1))));
    }
  }
  return triples;
}

std::vector<ConjunctiveQuery> MakeQueries() {
  return {
      ConjunctiveQuery(
          {"x", "l"},
          {P(Term::Var("x"), Term::Uri("x:type"), Term::Literal("gadget")),
           P(Term::Var("x"), Term::Uri("x:size"), Term::Var("l"))}),
      ConjunctiveQuery(
          {"x", "y"},
          {P(Term::Var("x"), Term::Uri("x:link"), Term::Var("y")),
           P(Term::Var("y"), Term::Uri("x:type"), Term::Literal("widget"))}),
      ConjunctiveQuery(
          {"x"},
          {P(Term::Uri("x:e0"), Term::Uri("x:type"), Term::Literal("widget")),
           P(Term::Var("x"), Term::Uri("x:size"), Term::Literal("2"))}),
  };
}

struct ChaosConfig {
  std::string name;
  uint64_t seed = 1;
  double loss = 0.0;
  int loss_bursts = 0;
  double duplicate_probability = 0.0;
  bool churn = false;
  int operations = 24;
  SimTime op_interval = 3.0;
  SimTime warmup = 5.0;
  /// Flash-crowd serving mode: extent cache + cross-query batching +
  /// service model on, submissions go through the QueryFrontend in bursts
  /// of `burst` identical queries per slot, and the data underneath is
  /// mutated mid-run so cached extents keep going stale. Overload becomes
  /// an acceptable terminal status (bounded queue, bursty arrivals).
  bool serving = false;
  int burst = 1;
  /// Statistics + adaptive execution mode: every peer fetches sketches
  /// before planning and re-optimizes mid-flight. Under loss, StatsRecords
  /// go missing and sketches go stale — planning must degrade to the greedy
  /// rank, never produce wrong answers or leak prefetch state.
  bool stats = false;
  /// Health mode: windowed metric snapshots + watchdog rules tick alongside
  /// the chaos. Thresholds are set aggressively so the loss-driven retry
  /// traffic must trip at least one rule during the run.
  bool health = false;
};

void RunConjunctiveChaos(const ChaosConfig& cfg) {
  SCOPED_TRACE("scenario=" + cfg.name +
               " seed=" + std::to_string(cfg.seed));

  GridVineNetwork::Options options;
  options.num_peers = 16;
  options.key_depth = 12;
  options.seed = cfg.seed;
  if (cfg.serving) {
    options.peer.cache.enabled = true;
    options.peer.batch.enabled = true;
    options.peer.service.enabled = true;
    options.peer.frontend.max_concurrent = 2;
    options.peer.frontend.max_queue = 4;
  }
  if (cfg.stats) {
    options.peer.stats.enabled = true;
    options.peer.stats.ttl = 20.0;  // sketches go stale mid-run
    options.peer.stats.divergence = 2.0;  // re-optimize aggressively
  }
  GridVineNetwork net(options);

  // Data goes in before any fault window opens (placement must succeed).
  ASSERT_TRUE(net.InsertTriples(0, MakeTriples(cfg.seed, 24)).ok());
  // Deterministic hot triples the serving scenario churns mid-run (cached
  // extents over them must go stale, not get served).
  Triple hot(Term::Uri("x:hot"), Term::Uri("x:type"), Term::Literal("gadget"));
  if (cfg.serving) {
    ASSERT_TRUE(net.InsertTriple(0, hot).ok());
  }
  net.Settle();

  if (cfg.health) {
    HealthWatchdog::Options hopts;
    hopts.retry_rate_threshold = 0.02;
    hopts.retry_min_sends = 10;
    hopts.shed_rate_threshold = 0.05;
    hopts.shed_min_submitted = 3;
    net.EnableHealth(/*window_s=*/1.0, hopts);
  }

  // Fault windows from the PR 3 plan generator, placed over the op phase.
  // Base loss is expressed as one window spanning the whole op phase (rather
  // than Network-level loss) so the synchronous data load stays clean.
  FaultScenario fs;
  fs.seed = cfg.seed;
  fs.warmup = cfg.warmup;
  fs.operations = cfg.operations;
  fs.op_interval = cfg.op_interval;
  fs.loss_bursts = cfg.loss_bursts;
  fs.duplicate_probability = cfg.duplicate_probability;
  auto plan = MakeFaultPlan(fs, net.overlay_peers());
  if (cfg.loss > 0) {
    FaultPlan::LossBurst base;
    base.start = cfg.warmup;
    base.end = cfg.warmup + cfg.operations * cfg.op_interval;
    base.probability = cfg.loss;
    plan->AddLossBurst(base);
  }
  net.network()->SetFaultPlan(std::move(plan));

  ChurnModel::Options copts;
  copts.mean_session_seconds = 40.0;
  copts.mean_downtime_seconds = 12.0;
  copts.pinned = {net.peer(0)->id()};
  ChurnModel churn(net.sim(), net.network(), Rng(cfg.seed + 5), copts);
  if (cfg.churn) churn.Start();

  struct OpRecord {
    int resolutions = 0;
    Status status;
  };
  std::vector<OpRecord> ops(size_t(cfg.operations * cfg.burst));
  auto queries = MakeQueries();
  GridVinePeer* issuer = net.peer(0);
  for (int i = 0; i < cfg.operations; ++i) {
    const ConjunctiveQuery& q = queries[size_t(i) % queries.size()];
    for (int b = 0; b < cfg.burst; ++b) {
      OpRecord* rec = &ops[size_t(i * cfg.burst + b)];
      const bool serving = cfg.serving;
      net.sim()->ScheduleAt(cfg.warmup + i * cfg.op_interval,
                            [issuer, q, rec, serving] {
        auto done = [rec](GridVinePeer::ConjunctiveResult r) {
          ++rec->resolutions;
          rec->status = r.status;
        };
        if (serving) {
          issuer->frontend()->SubmitConjunctive(q, {}, done);
        } else {
          issuer->SearchForConjunctive(q, {}, done);
        }
      });
    }
  }
  if (cfg.serving) {
    // Mutate the hot triple every other op slot: remove, then re-insert one
    // slot later. Cached extents over x:type keep being invalidated while
    // the flash crowd re-queries them under loss/churn.
    for (int i = 1; i + 1 < cfg.operations; i += 2) {
      net.sim()->ScheduleAt(cfg.warmup + i * cfg.op_interval + 0.5,
                            [&net, hot] {
                              net.peer(0)->RemoveTriple(hot, [](Status) {});
                            });
      net.sim()->ScheduleAt(cfg.warmup + (i + 1) * cfg.op_interval + 0.5,
                            [&net, hot] {
                              net.peer(0)->InsertTriple(hot, [](Status) {});
                            });
    }
  }

  const SimTime stop_at = cfg.warmup + cfg.operations * cfg.op_interval + 1.0;
  net.sim()->ScheduleAt(stop_at, [&churn] { churn.Stop(); });
  net.Settle();

  // Every op resolved exactly once, to OK or Timeout (or Overload when the
  // bounded admission queue is in play).
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    ASSERT_EQ(ops[i].resolutions, 1);
    EXPECT_TRUE(ops[i].status.ok() || ops[i].status.IsTimeout() ||
                (cfg.serving && ops[i].status.IsOverload()))
        << ops[i].status;
  }

  // No leaked operator or transport state once the heap drained.
  EXPECT_EQ(net.sim()->pending(), 0u);
  for (size_t p = 0; p < net.size(); ++p) {
    EXPECT_EQ(net.peer(p)->ActiveConjunctiveExecs(), 0u) << "peer " << p;
    EXPECT_EQ(net.peer(p)->PendingQueryCount(), 0u) << "peer " << p;
  }

  if (cfg.stats) {
    // The statistics layer actually engaged under fire: sketches were
    // fetched and served, and no prefetch is left waiting once the heap
    // drained (a lost StatsRecord must be written off at the fetch timeout,
    // not strand its query).
    uint64_t fetches = 0, served = 0;
    for (size_t p = 0; p < net.size(); ++p) {
      MetricsRegistry mr;
      net.peer(p)->PublishMetrics(&mr);
      fetches += uint64_t(mr.Counter("gv.stats.fetches"));
      served += uint64_t(mr.Counter("gv.stats.served"));
    }
    EXPECT_GT(fetches, 0u);
    EXPECT_GT(served, 0u);
  }

  if (cfg.serving) {
    // The serving stack actually engaged under fire: the cache saw traffic
    // and the data churn invalidated stale extents instead of serving them.
    uint64_t hits = 0, misses = 0, invalidations = 0;
    for (size_t p = 0; p < net.size(); ++p) {
      const ExtentCache* c = net.peer(p)->cache();
      hits += c->stats().hits;
      misses += c->stats().misses;
      invalidations += c->stats().invalidations;
    }
    EXPECT_GT(hits + misses, 0u);
    EXPECT_GT(invalidations, 0u);
  }

  // The PR 3 wire invariants still hold with the new message types in play.
  const NetworkStats& n = net.network()->stats();
  EXPECT_EQ(n.messages_sent + n.messages_duplicated,
            n.messages_delivered + n.messages_dropped);
  EXPECT_EQ(n.drops_endpoint + n.drops_loss + n.drops_burst +
                n.drops_partition,
            n.messages_dropped);

  if (cfg.health) {
    // The watchdog ticked throughout the run and the retry traffic the loss
    // bursts force tripped at least one rule; conservation — which the wire
    // invariant above checks the hard way — never fired.
    const HealthWatchdog* dog = net.watchdog();
    EXPECT_GT(dog->windows_evaluated(), 10u);
    EXPECT_FALSE(dog->violations().empty());
    EXPECT_EQ(dog->fired("conservation"), 0u);
    EXPECT_GT(net.timeseries()->windows(), 10u);
    // Violations surfaced as metrics on the snapshot path too.
    MetricsRegistry& mr = net.CollectMetrics();
    EXPECT_EQ(mr.Counter("health.violations"), dog->violations().size());
  }
}

TEST(ConjunctiveChaosTest, LossBursts) {
  ChaosConfig cfg;
  cfg.name = "loss";
  cfg.seed = 11;
  cfg.loss = 0.12;
  cfg.loss_bursts = 2;
  RunConjunctiveChaos(cfg);
}

TEST(ConjunctiveChaosTest, Churn) {
  ChaosConfig cfg;
  cfg.name = "churn";
  cfg.seed = 29;
  cfg.churn = true;
  RunConjunctiveChaos(cfg);
}

TEST(ConjunctiveChaosTest, LossChurnAndDuplication) {
  ChaosConfig cfg;
  cfg.name = "loss+churn+dup";
  cfg.seed = 83;
  cfg.loss = 0.08;
  cfg.loss_bursts = 1;
  cfg.duplicate_probability = 0.05;
  cfg.churn = true;
  RunConjunctiveChaos(cfg);
}

TEST(ConjunctiveChaosTest, FlashCrowdServing) {
  // Flash crowd through the full serving stack (frontend + cache + batcher
  // + service model) layered over loss and churn, with the hot data mutated
  // mid-run. The drain contract must hold with Overload as a third legal
  // terminal status, and invalidation must beat staleness.
  ChaosConfig cfg;
  cfg.name = "flash-crowd";
  cfg.seed = 101;
  cfg.loss = 0.06;
  cfg.loss_bursts = 1;
  cfg.churn = true;
  cfg.serving = true;
  cfg.burst = 3;
  cfg.health = true;
  RunConjunctiveChaos(cfg);
}

TEST(ConjunctiveChaosTest, StatsAdaptiveUnderLossAndChurn) {
  // Distributed statistics + adaptive execution under the full chaos stack:
  // sketch fetches are single-attempt, so the loss bursts routinely kill
  // StatsRecords and whole prefetch waves must degrade to greedy planning
  // at the fetch timeout. The drain contract and wire invariants must hold
  // with the two new message types in play.
  ChaosConfig cfg;
  cfg.name = "stats-adaptive";
  cfg.seed = 47;
  cfg.loss = 0.10;
  cfg.loss_bursts = 2;
  cfg.duplicate_probability = 0.05;
  cfg.churn = true;
  cfg.stats = true;
  RunConjunctiveChaos(cfg);
}

/// Network-level differential: cost-based/adaptive execution must return
/// exactly the rows greedy planning returns — statistics change shipping
/// costs, never answers. The stats deployment issues each query twice (the
/// first run's prefetch warms the sketch cache, the second plans cost-based
/// with observed-cardinality overrides in place).
TEST(ConjunctiveDifferentialTest, CostBasedMatchesGreedyRows) {
  for (uint64_t seed : {7u, 21u}) {
    GridVineNetwork::Options greedy_opts;
    greedy_opts.num_peers = 16;
    greedy_opts.key_depth = 12;
    greedy_opts.seed = seed;
    GridVineNetwork greedy_net(greedy_opts);
    ASSERT_TRUE(greedy_net.InsertTriples(0, MakeTriples(seed, 30)).ok());
    greedy_net.Settle();

    GridVineNetwork::Options stats_opts = greedy_opts;
    stats_opts.peer.stats.enabled = true;
    stats_opts.peer.stats.divergence = 2.0;
    GridVineNetwork stats_net(stats_opts);
    ASSERT_TRUE(stats_net.InsertTriples(0, MakeTriples(seed, 30)).ok());
    stats_net.Settle();

    size_t nonempty = 0;
    for (const auto& q : MakeQueries()) {
      auto greedy = greedy_net.SearchForConjunctive(1, q);
      ASSERT_TRUE(greedy.status.ok()) << q.ToString();
      std::set<std::string> greedy_rows;
      for (const auto& row : greedy.rows)
        greedy_rows.insert(SerializeBindings({row}));

      for (int run = 0; run < 2; ++run) {
        auto cost = stats_net.SearchForConjunctive(1, q);
        ASSERT_TRUE(cost.status.ok()) << q.ToString() << " run " << run;
        std::set<std::string> cost_rows;
        for (const auto& row : cost.rows)
          cost_rows.insert(SerializeBindings({row}));
        EXPECT_EQ(cost_rows, greedy_rows)
            << "seed=" << seed << " run=" << run << " " << q.ToString();
      }
      if (!greedy.rows.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 0u);
    // The second runs actually planned on statistics.
    const StatsCache* sc = stats_net.peer(1)->stats_cache();
    ASSERT_NE(sc, nullptr);
    EXPECT_GT(sc->stats().refreshes, 0u);
    EXPECT_GT(sc->stats().hits, 0u);
  }
}

/// Continuous self-organization layered over the full chaos stack: loss
/// bursts + duplication from the PR 3 fault plan, ChurnModel churn, and a
/// conjunctive query stream — all while SelfOrganizer::RunContinuous builds
/// and assesses the mediation layer in the background. Checks the query
/// drain contract, the wire invariants, and that the incremental assessor
/// leaks no state across the faulty rounds. Returns the run's fingerprint
/// for the replay check.
std::string RunSelforgChaos(uint64_t seed) {
  SCOPED_TRACE("selforg-chaos seed=" + std::to_string(seed));

  GridVineNetwork::Options options;
  options.num_peers = 8;
  options.key_depth = 12;
  options.seed = seed;
  options.peer.query_timeout = 4.0;
  GridVineNetwork net(options);

  // Bio schemas/data (the organizer's substrate) plus the entity triples
  // the conjunctive stream queries; both load before any fault window.
  BioWorkload::Options wo;
  wo.num_schemas = 5;
  wo.num_entities = 40;
  wo.entities_per_schema = 16;
  wo.min_attrs = 4;
  wo.max_attrs = 6;
  wo.value_noise = 0.0;
  wo.seed = 21;
  BioWorkload workload(wo);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    EXPECT_TRUE(net.InsertSchema(s, workload.schemas()[s]).ok());
    EXPECT_TRUE(net.InsertTriples(s, workload.TriplesFor(s)).ok());
  }
  EXPECT_TRUE(net.InsertTriples(0, MakeTriples(seed, 24)).ok());
  net.Settle();

  FaultScenario fs;
  fs.seed = seed;
  fs.warmup = 5.0;
  fs.operations = 12;
  fs.op_interval = 3.0;
  fs.loss_bursts = 2;
  fs.duplicate_probability = 0.04;
  auto plan = MakeFaultPlan(fs, net.overlay_peers());
  FaultPlan::LossBurst base;
  base.start = fs.warmup;
  base.end = fs.warmup + fs.operations * fs.op_interval;
  base.probability = 0.08;
  plan->AddLossBurst(base);
  net.network()->SetFaultPlan(std::move(plan));

  ChurnModel::Options copts;
  copts.mean_session_seconds = 40.0;
  copts.mean_downtime_seconds = 12.0;
  copts.pinned = {net.peer(0)->id()};
  ChurnModel churn(net.sim(), net.network(), Rng(seed + 5), copts);
  churn.Start();

  struct OpRecord {
    int resolutions = 0;
    Status status;
  };
  std::vector<OpRecord> ops(size_t(fs.operations));
  auto queries = MakeQueries();
  GridVinePeer* issuer = net.peer(0);
  for (int i = 0; i < fs.operations; ++i) {
    const ConjunctiveQuery& q = queries[size_t(i) % queries.size()];
    OpRecord* rec = &ops[size_t(i)];
    net.sim()->ScheduleAt(fs.warmup + i * fs.op_interval, [issuer, q, rec] {
      issuer->SearchForConjunctive(q, {},
                                   [rec](GridVinePeer::ConjunctiveResult r) {
                                     ++rec->resolutions;
                                     rec->status = r.status;
                                   });
    });
  }
  const SimTime stop_at = fs.warmup + fs.operations * fs.op_interval + 1.0;
  net.sim()->ScheduleAt(stop_at, [&churn] { churn.Stop(); });

  SelfOrganizer::Options oo;
  oo.domain = "protein-sequences";
  oo.creations_per_round = 3;
  oo.seed = 9;
  SelfOrganizer organizer(&net, oo);
  for (size_t s = 0; s < workload.schemas().size(); ++s) {
    organizer.RegisterSchemaOwner(workload.schemas()[s].name(), s);
  }

  // 14 slices of 3s cover the whole op/fault phase; query ops, fault
  // windows and churn transitions fire inside the slices, rounds run
  // between them.
  std::vector<SelfOrganizer::RoundReport> reports =
      organizer.RunContinuous(14, 3.0);
  net.Settle();  // churn stopped at stop_at; remaining timeouts drain

  // Fault-free convergence tail with every peer back up (ChurnModel leaves
  // its last transition state behind).
  for (size_t p = 0; p < net.size(); ++p) net.SetAlive(p, true);
  for (int r = 0; r < 2; ++r) {
    net.RunUntil(net.Now() + 1.0);
    reports.push_back(organizer.RunRound());
  }
  net.Settle();

  // Query drain contract: every conjunctive op resolved exactly once, to OK
  // or Timeout, with the self-organization traffic in flight.
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(ops[i].resolutions, 1);
    EXPECT_TRUE(ops[i].status.ok() || ops[i].status.IsTimeout())
        << ops[i].status;
  }
  EXPECT_EQ(net.sim()->pending(), 0u);
  for (size_t p = 0; p < net.size(); ++p) {
    EXPECT_EQ(net.peer(p)->ActiveConjunctiveExecs(), 0u) << "peer " << p;
    EXPECT_EQ(net.peer(p)->PendingQueryCount(), 0u) << "peer " << p;
  }

  // Wire invariants with mediation-layer message types in the mix.
  const NetworkStats& n = net.network()->stats();
  EXPECT_EQ(n.messages_sent + n.messages_duplicated,
            n.messages_delivered + n.messages_dropped);
  EXPECT_EQ(n.drops_endpoint + n.drops_loss + n.drops_burst +
                n.drops_partition,
            n.messages_dropped);

  // Organization progressed and no assessment state leaked: the maintained
  // factor graph equals a fresh rebuild from the same view despite failed
  // syncs while owners were down. (A non-empty dirty set is legitimate
  // carry-over — the round's closing sync can re-intern records whose DHT
  // replicas diverged while one was dead — so the leak check is structural
  // equality, not an empty dirty region.)
  size_t created = 0;
  for (const auto& r : reports) created += r.mappings_created;
  EXPECT_GT(created, 0u);
  EXPECT_TRUE(reports.back().bp_converged);
  MappingGraph copy = organizer.graph_view();
  copy.SetListener(nullptr);
  IncrementalAssessor fresh(organizer.assessor().options());
  fresh.Attach(&copy);
  EXPECT_EQ(organizer.assessor().StructureDigest(), fresh.StructureDigest());

  std::ostringstream fp;
  for (size_t i = 0; i < reports.size(); ++i) {
    fp << FormatRoundReport(int(i), reports[i]);
  }
  fp << AssessorFingerprint(organizer.assessor());
  return fp.str();
}

TEST(ConjunctiveChaosTest, ContinuousSelfOrganizationUnderChaos) {
  RunSelforgChaos(29);
  RunSelforgChaos(83);
}

// The layered scenario is still seed-replayable: two runs at the same seed
// produce bit-identical round reports, factor graphs and posteriors.
TEST(ConjunctiveChaosTest, SelfOrganizationChaosReplaysBitIdentically) {
  EXPECT_EQ(RunSelforgChaos(11), RunSelforgChaos(11));
}

/// Network-level differential: same deployment, same data, faults off —
/// bind-join pushdown must return exactly the collect-then-join rows.
TEST(ConjunctiveDifferentialTest, BindJoinEqualsCollectThenJoin) {
  for (uint64_t seed : {7u, 21u}) {
    GridVineNetwork::Options options;
    options.num_peers = 16;
    options.key_depth = 12;
    options.seed = seed;
    GridVineNetwork net(options);
    ASSERT_TRUE(net.InsertTriples(0, MakeTriples(seed, 30)).ok());
    net.Settle();

    size_t nonempty = 0;
    for (const auto& q : MakeQueries()) {
      GridVinePeer::QueryOptions bind_opts;
      bind_opts.bind_join = true;
      GridVinePeer::QueryOptions collect_opts;
      collect_opts.bind_join = false;

      auto bind = net.SearchForConjunctive(1, q, bind_opts);
      auto collect = net.SearchForConjunctive(2, q, collect_opts);
      ASSERT_TRUE(bind.status.ok()) << q.ToString();
      ASSERT_TRUE(collect.status.ok()) << q.ToString();

      std::set<std::string> bind_rows, collect_rows;
      for (const auto& row : bind.rows)
        bind_rows.insert(SerializeBindings({row}));
      for (const auto& row : collect.rows)
        collect_rows.insert(SerializeBindings({row}));
      EXPECT_EQ(bind_rows, collect_rows) << "seed=" << seed << " "
                                         << q.ToString();
      if (!bind.rows.empty()) ++nonempty;
    }
    EXPECT_GT(nonempty, 0u);
  }
}

}  // namespace
}  // namespace gridvine
