// serving_flash_crowd — open-loop flash crowd against the serving layer.
//
// 64 peers, 8 of them gateways, with the responder service model, the
// admission-controlled frontends (8 concurrent, queue 256), the extent
// cache and cross-query batching all on. Arrivals are bursty Poisson (6x
// the base rate for 1 s in every 5 s) over categories drawn from a 0-based
// Zipf(24, 1.1): 75% single-pattern lookups, 20% bind-join conjunctive
// queries, and 5% writes of (x:wN, x:tag, "catK") on fresh subjects. The
// writes land on the hot responders and invalidate their caches without
// changing any answer, since no query reads x:tag. One pass sweeps the base
// rate over kRates; latency, recall and failures are reported at
// kReportRate, and the sweep yields the highest rate that keeps p99 within
// 1 s with nothing shed and no backlog. Frontend queueing, cache hits
// against invalidations, batching, the executor and store row matching do
// the work.
//
// Where the hot categories' keys land in the overlay sets most of the
// latency, so each sweep point spreads its arrivals over kReplicas
// deployments with distinct overlays; one overlay alone moves p50 latency
// by about 10% from seed to seed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gridvine/query_frontend.h"
#include "harness.h"

namespace gvbench {
namespace {

constexpr size_t kPeers = 64;
constexpr size_t kGateways = 8;
constexpr size_t kCategories = 24;
constexpr size_t kEntities = 480;
constexpr double kRates[] = {10, 20, 40, 60, 70, 80, 100, 120};
constexpr size_t kReplicas = 6;
constexpr double kReportRate = 20;
constexpr double kLatencyLimit = 1.0;  // p99 and backlog limit, seconds
constexpr double kWindow = 1.0;        // open-loop slice, simulated seconds
constexpr size_t kTraceRing = size_t(1) << 18;

enum class Kind { kLookup, kConjunctive, kWrite };

struct Arrival {
  double at = 0;  // offset from the start of the run, simulated seconds
  size_t gateway = 0;
  size_t category = 0;
  Kind kind = Kind::kLookup;
};

/// Where a callback deposits its outcome. Preallocated per arrival so the
/// completion path writes only its own slot.
struct Slot {
  double done_at = -1;
  Status status;
  std::vector<std::string> rows;
};

std::string Category(size_t k) { return Numbered("cat", k); }

TriplePattern TypePattern(size_t k) {
  return TriplePattern(Term::Var("x"), Term::Uri("x:type"),
                       Term::Literal(Category(k)));
}

ConjunctiveQuery JoinQuery(size_t k) {
  return ConjunctiveQuery(
      {"x", "l"}, {TypePattern(k), TriplePattern(Term::Var("x"),
                                                 Term::Uri("x:size"),
                                                 Term::Var("l"))});
}

std::string RowKey(const BindingSet& row) {
  std::string key;
  for (const auto& [var, term] : row) key += var + "=" + term.value() + ";";
  return key;
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

class ServingFlashCrowd : public Workload {
 public:
  ServingFlashCrowd(uint64_t seed, bool smoke)
      : seed_(seed), arrivals_per_rate_(smoke ? 600 : 12000) {
    TripleStore reference;
    for (size_t e = 0; e < kEntities; ++e) {
      const Term subject = Term::Uri(Numbered("x:e", e));
      corpus_.emplace_back(subject, Term::Uri("x:type"),
                           Term::Literal(Category(e % kCategories)));
      corpus_.emplace_back(subject, Term::Uri("x:size"),
                           Term::Literal(std::to_string(e % 5)));
    }
    (void)reference.InsertBatch(corpus_);
    for (size_t k = 0; k < kCategories; ++k) {
      lookup_ref_.push_back(ReferenceAnswer(reference, TypePattern(k), "x"));
      const ConjunctiveQuery q = JoinQuery(k);
      std::vector<std::string> rows;
      for (const BindingSet& row :
           TripleStore::Join(reference.MatchPattern(q.patterns()[0]),
                             reference.MatchPattern(q.patterns()[1]))) {
        rows.push_back(RowKey(row));
      }
      join_ref_.push_back(Sorted(std::move(rows)));
    }
    for (size_t r = 0; r < std::size(kRates); ++r) {
      for (size_t j = 0; j < kReplicas; ++j) {
        sweep_.push_back(
            MakeArrivals(kRates[r], SubSeed(seed, 100 * (r + 1) + j)));
      }
    }
  }

  std::vector<std::pair<std::string, double>> Params() const override {
    return {{"peers", double(kPeers)},
            {"gateways", double(kGateways)},
            {"entities", double(kEntities)},
            {"categories", double(kCategories)},
            {"zipf_s", 1.1},
            {"arrivals_per_rate", double(arrivals_per_rate_)},
            {"report_rate", kReportRate},
            {"rates", double(std::size(kRates))},
            {"replicas", double(kReplicas)},
            {"frontend_concurrency", 8},
            {"frontend_queue", 256}};
  }

  Pass RunPass(HostSpans* spans) override {
    Pass pass;
    MetricMap acc;
    double max_rate = 0;
    bool below_limit = true;
    for (size_t r = 0; r < std::size(kRates); ++r) {
      std::vector<double> latency;
      bool within = true;
      for (size_t j = 0; j < kReplicas; ++j) {
        within = RunReplica(r, j, spans, &pass, &acc, &latency) && within;
      }
      within = within && !latency.empty() &&
               Quantile(latency, 0.99) <= kLatencyLimit;
      below_limit = below_limit && within;
      if (below_limit) max_rate = kRates[r];
    }
    pass.FinishLayers(acc);
    pass.layer["gridvine.max_rate_qps"] = max_rate;
    return pass;
  }

  void Probe(MetricMap* layer) override {
    ProbeInputs in;
    in.net = net_.get();
    for (size_t k = 0; k < kCategories; ++k) {
      in.patterns.push_back(TypePattern(k));
      in.conjunctive.push_back(JoinQuery(k));
      in.reformulate.emplace_back("x", TypePattern(k));
    }
    RunProbes(in, layer);
  }

 private:
  std::vector<Arrival> MakeArrivals(double base_rate, uint64_t seed) const {
    Rng rng(seed);
    std::vector<Arrival> out;
    double t = 0;
    for (size_t i = 0; i < arrivals_per_rate_ / kReplicas; ++i) {
      const double phase = t - 5.0 * std::floor(t / 5.0);
      t += rng.Exponential(phase < 1.0 ? base_rate * 6.0 : base_rate);
      Arrival a;
      a.at = t;
      a.gateway = 1 + size_t(rng.UniformInt(0, int64_t(kGateways) - 1));
      a.category = rng.Zipf(kCategories, 1.1);  // already 0-based
      const double u = rng.UniformDouble(0, 1);
      a.kind = u < 0.05 ? Kind::kWrite
                        : u < 0.25 ? Kind::kConjunctive : Kind::kLookup;
      out.push_back(a);
    }
    return out;
  }

  GridVineNetwork::Options NetOptions(size_t replica) const {
    GridVineNetwork::Options o;
    o.num_peers = kPeers;
    o.key_depth = 14;
    o.seed = SubSeed(seed_, 1 + replica);
    o.latency = GridVineNetwork::LatencyKind::kUniform;
    o.latency_param = 0.02;
    o.peer.cache.enabled = true;
    o.peer.batch.enabled = true;
    // E9's service costs: the hot key region's owner is a saturable server.
    o.peer.service.enabled = true;
    o.peer.service.per_request = 4e-3;
    o.peer.service.per_item = 4e-4;
    o.peer.service.per_row = 2e-4;
    o.peer.service.per_hit = 1e-4;
    o.peer.frontend.max_concurrent = 8;
    o.peer.frontend.max_queue = 256;
    return o;
  }

  /// Replica j of sweep point r on a fresh deployment; appends the latency
  /// of every answered query to `latency`. Returns whether nothing was shed
  /// and the last completion came within 1 s of the last arrival.
  bool RunReplica(size_t r, size_t j, HostSpans* spans, Pass* pass,
                  MetricMap* acc, std::vector<double>* latency) {
    const std::vector<Arrival>& arrivals = sweep_[r * kReplicas + j];
    const bool report = kRates[r] == kReportRate;
    net_.reset();
    const auto t0 = Clock::now();
    {
      HostSpan span(spans, "GridVineNetwork");
      net_ = std::make_unique<GridVineNetwork>(NetOptions(j));
    }
    {
      HostSpan span(spans, "InsertTriples");
      if (!net_->InsertTriples(0, corpus_).ok()) pass->Error("loading corpus");
    }
    {
      HostSpan span(spans, "Settle");
      net_->Settle();
    }
    pass->setup_s.push_back(SecondsSince(t0));

    // A traced pass traces every replica; the ring holds a whole replica.
    const bool traced = spans != nullptr;
    if (traced) net_->tracer()->Enable(kTraceRing);
    const MetricMap before = ReadCounters(*net_);
    std::vector<Slot> slots(arrivals.size());
    std::vector<double> due;
    due.reserve(arrivals.size());
    const double base = net_->Now();
    Simulator* sim = net_->sim();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      due.push_back(base + a.at);
      Slot* slot = &slots[i];
      GridVinePeer* gw = net_->peer(a.gateway);
      const size_t serial = i;
      sim->ScheduleAt(base + a.at, [slot, gw, sim, a, serial] {
        switch (a.kind) {
          case Kind::kLookup:
            gw->frontend()->Submit(
                TriplePatternQuery("x", TypePattern(a.category)), {},
                [slot, sim](GridVinePeer::QueryResult res) {
                  slot->done_at = sim->Now();
                  slot->status = res.status;
                  for (const auto& item : res.items) {
                    slot->rows.push_back(item.value.value());
                  }
                });
            break;
          case Kind::kConjunctive:
            gw->frontend()->SubmitConjunctive(
                JoinQuery(a.category), {},
                [slot, sim](GridVinePeer::ConjunctiveResult res) {
                  slot->done_at = sim->Now();
                  slot->status = res.status;
                  for (const BindingSet& row : res.rows) {
                    slot->rows.push_back(RowKey(row));
                  }
                });
            break;
          case Kind::kWrite:
            gw->InsertTriple(
                Triple(Term::Uri(Numbered("x:w", serial)),
                       Term::Uri("x:tag"), Term::Literal(Category(a.category))),
                [slot, sim](Status s) {
                  slot->done_at = sim->Now();
                  slot->status = std::move(s);
                });
            break;
        }
      });
    }
    DriveOpenLoop(*net_, due, kWindow, pass, spans, nullptr);
    AccumulateCounters(before, ReadCounters(*net_), acc);
    if (traced) {
      pass->trace.Drain(*net_->tracer(), {});
      net_->tracer()->Disable();
    }

    // Every arrival resolved exactly once; answers checked outside timers.
    size_t shed = 0;
    double last_done = 0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      const Slot& s = slots[i];
      ++pass->attempted;
      if (s.done_at < 0) {
        ++pass->failed;
        pass->Error("arrival " + std::to_string(i) + " never completed");
        continue;
      }
      pass->digest.Mix(s.done_at);
      if (s.status.IsOverload()) {
        ++shed;
        // Shedding above the reporting rate is the admission control
        // doing its job; the sweep turns it into max_rate_qps.
        if (report) ++pass->failed;
        continue;
      }
      if (!s.status.ok()) {
        ++pass->failed;
        pass->Error("arrival " + std::to_string(i) + ": " +
                    s.status.ToString());
        continue;
      }
      ++pass->ops;
      last_done = std::max(last_done, s.done_at);
      if (a.kind == Kind::kWrite) continue;
      latency->push_back(s.done_at - due[i]);
      const std::vector<std::string> rows = Sorted(s.rows);
      for (const std::string& row : rows) pass->digest.Mix(row);
      const auto& ref = a.kind == Kind::kLookup ? lookup_ref_[a.category]
                                                : join_ref_[a.category];
      const std::string what = "rate " + std::to_string(int(kRates[r])) +
                               " arrival " + std::to_string(i);
      if (report) {
        pass->sim_latency_s.push_back(latency->back());
        pass->Score(rows, ref, what);
      } else {
        pass->Check(rows, ref, what);
      }
    }
    if (report) {
      pass->layer["store.bytes_per_triple"] = StoreBytesPerTriple(*net_);
    }
    return shed == 0 && last_done - due.back() <= kLatencyLimit;
  }

  uint64_t seed_;
  size_t arrivals_per_rate_;
  std::vector<Triple> corpus_;
  std::vector<std::vector<std::string>> lookup_ref_;
  std::vector<std::vector<std::string>> join_ref_;
  std::vector<std::vector<Arrival>> sweep_;  // [rate * kReplicas + replica]
  std::unique_ptr<GridVineNetwork> net_;
};

}  // namespace

std::unique_ptr<Workload> MakeServingFlashCrowd(uint64_t seed, bool smoke) {
  return std::make_unique<ServingFlashCrowd>(seed, smoke);
}

}  // namespace gvbench
