// scale_sharded — open loop at scale on the sharded engine.
//
// 100,000 peers on ShardedNetwork with one shard, run on the calling thread,
// on a WAN latency model whose 10 ms floor is the engine's lookahead. Each
// entity has a value (x:eI, x:val, "vI") and a group (x:eI, x:grp, "gJ"),
// twenty entities to a group. Arrivals come at a fixed
// simulated rate from random peers: 95% exact-object lookups of a random
// entity, 5% inserts under x:ins, a predicate no query reads. Routing depth
// at scale, the epoch/mailbox machinery, memory per peer and set-up time
// dominate.
//
// One shard, not two: with two worker threads every 10 ms epoch waits for
// the slower worker, so on a shared host the run time measured how busy the
// other cores were (IQR/median of run_s over 10 seeds 0.23, against 0.12 for
// one shard in alternating runs). The rate is high so that an epoch holds
// about a hundred arrivals and a pass stays short.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace gvbench {
namespace {

constexpr uint32_t kShards = 1;
constexpr double kRate = 10000;   // arrivals per simulated second
constexpr double kWindow = 0.02;  // open-loop slice, simulated seconds
// Traced passes analyse and clear the rings every kDrainWindows slices;
// each shard's ring must hold that many slices of spans.
constexpr size_t kDrainWindows = 10;
constexpr size_t kTraceRingPerShard = size_t(1) << 19;

struct Sizes {
  size_t peers;
  size_t entities;
  size_t arrivals;
};

struct Arrival {
  double at = 0;
  size_t issuer = 0;
  size_t entity = 0;
  bool insert = false;
};

struct Slot {
  bool done = false;
  Status status;
  double latency = 0;
  std::vector<std::string> rows;
};

constexpr size_t kGroupSize = 20;

TriplePattern GroupPattern(size_t entity) {
  return TriplePattern(Term::Var("x"), Term::Uri("x:grp"),
                       Term::Literal(Numbered("g", entity / kGroupSize)));
}

TriplePattern ValuePattern(size_t entity) {
  return TriplePattern(Term::Var("x"), Term::Uri("x:val"),
                       Term::Literal(Numbered("v", entity)));
}

class ScaleSharded : public Workload {
 public:
  ScaleSharded(uint64_t seed, bool smoke)
      : seed_(seed),
        sizes_(smoke ? Sizes{5000, 2000, 5000} : Sizes{100000, 10000, 40000}) {
    TripleStore reference;
    for (size_t e = 0; e < sizes_.entities; ++e) {
      const Term subject = Term::Uri(Numbered("x:e", e));
      corpus_.emplace_back(subject, Term::Uri("x:val"),
                           Term::Literal(Numbered("v", e)));
      corpus_.emplace_back(subject, Term::Uri("x:grp"),
                           GroupPattern(e).object());
    }
    (void)reference.InsertBatch(corpus_);
    Rng rng(SubSeed(seed, 2));
    double t = 0;
    for (size_t i = 0; i < sizes_.arrivals; ++i) {
      t += rng.Exponential(kRate);
      Arrival a;
      a.at = t;
      a.issuer = size_t(rng.UniformInt(0, int64_t(sizes_.peers) - 1));
      a.entity = size_t(rng.UniformInt(0, int64_t(sizes_.entities) - 1));
      a.insert = rng.Bernoulli(0.05);
      arrivals_.push_back(a);
    }
    for (const Arrival& a : arrivals_) {
      references_.push_back(
          a.insert ? std::vector<std::string>{}
                   : ReferenceAnswer(reference, ValuePattern(a.entity), "x"));
    }
  }

  std::vector<std::pair<std::string, double>> Params() const override {
    return {{"peers", double(sizes_.peers)},
            {"shards", double(kShards)},
            {"entities", double(sizes_.entities)},
            {"arrivals", double(sizes_.arrivals)},
            {"rate", kRate},
            {"insert_share", 0.05}};
  }

  Pass RunPass(HostSpans* spans) override {
    Pass pass;
    net_.reset();
    const auto t0 = Clock::now();
    {
      HostSpan span(spans, "GridVineNetwork");
      net_ = std::make_unique<GridVineNetwork>(NetOptions());
    }
    {
      HostSpan span(spans, "InsertTriples");
      if (!net_->InsertTriples(0, corpus_).ok()) pass.Error("loading corpus");
    }
    {
      HostSpan span(spans, "Settle");
      net_->Settle();
    }
    pass.setup_s.push_back(SecondsSince(t0));

    const bool traced = spans != nullptr;
    if (traced) net_->tracer()->Enable(kTraceRingPerShard);
    const MetricMap before = ReadCounters(*net_);
    ShardedNetwork* engine = net_->engine();
    std::vector<Slot> slots(arrivals_.size());
    std::vector<double> due;
    due.reserve(arrivals_.size());
    const double base = net_->Now();
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      const Arrival& a = arrivals_[i];
      due.push_back(base + a.at);
      Slot* slot = &slots[i];
      GridVinePeer* peer = net_->peer(a.issuer);
      // Completions run on the issuer's shard (a worker thread when
      // kShards > 1); each writes only its own preallocated slot.
      engine->ScheduleForNode(
          NodeId(a.issuer), a.at, [slot, peer, a, i] {
            if (a.insert) {
              peer->InsertTriple(
                  Triple(Term::Uri(Numbered("x:n", i)),
                         Term::Uri("x:ins"),
                         Term::Literal(Numbered("w", i))),
                  [slot](Status s) {
                    slot->status = std::move(s);
                    slot->done = true;
                  });
              return;
            }
            peer->SearchFor(TriplePatternQuery("x", ValuePattern(a.entity)), {},
                            [slot](GridVinePeer::QueryResult r) {
                              slot->status = r.status;
                              slot->latency = r.latency;
                              slot->done = true;
                              for (const auto& item : r.items) {
                                slot->rows.push_back(item.value.value());
                              }
                            });
          });
    }
    size_t windows = 0;
    DriveOpenLoop(*net_, due, kWindow, &pass, spans, [&] {
      if (traced && ++windows % kDrainWindows == 0) {
        pass.trace.Drain(*net_->tracer(), {});
      }
    });
    if (traced) {
      pass.trace.Drain(*net_->tracer(), {});
      net_->tracer()->Disable();
    }
    MetricMap acc;
    AccumulateCounters(before, ReadCounters(*net_), &acc);

    for (size_t i = 0; i < arrivals_.size(); ++i) {
      const Slot& s = slots[i];
      ++pass.attempted;
      if (!s.done || !s.status.ok()) {
        ++pass.failed;
        pass.Error("arrival " + std::to_string(i) + ": " +
                   (s.done ? s.status.ToString() : "never completed"));
        continue;
      }
      ++pass.ops;
      if (arrivals_[i].insert) continue;
      pass.sim_latency_s.push_back(s.latency);
      std::vector<std::string> rows = s.rows;
      std::sort(rows.begin(), rows.end());
      pass.Score(rows, references_[i], "arrival " + std::to_string(i));
      pass.digest.Mix(s.latency);
      for (const std::string& row : rows) pass.digest.Mix(row);
    }
    pass.FinishLayers(acc);
    pass.layer["store.bytes_per_triple"] = StoreBytesPerTriple(*net_);
    return pass;
  }

  void Probe(MetricMap* layer) override {
    ProbeInputs in;
    in.net = net_.get();
    for (size_t i = 0; i < arrivals_.size() && in.patterns.size() < 64; ++i) {
      if (arrivals_[i].insert) continue;
      const size_t e = arrivals_[i].entity;
      in.patterns.push_back(ValuePattern(e));
      in.reformulate.emplace_back("x", ValuePattern(e));
      in.conjunctive.emplace_back(
          std::vector<std::string>{"x"},
          std::vector<TriplePattern>{ValuePattern(e), GroupPattern(e)});
    }
    RunProbes(in, layer);
  }

 private:
  GridVineNetwork::Options NetOptions() const {
    GridVineNetwork::Options o;
    o.num_peers = sizes_.peers;
    o.key_depth = 16;
    o.seed = SubSeed(seed_, 1);
    o.shards = kShards;
    o.force_sharded = true;  // the sharded engine even at one shard
    o.latency = GridVineNetwork::LatencyKind::kWan;
    o.latency_param = 0.01;
    o.wan_mu = -4.6;
    o.wan_sigma = 0.5;
    return o;
  }

  uint64_t seed_;
  Sizes sizes_;
  std::vector<Triple> corpus_;
  std::vector<Arrival> arrivals_;
  std::vector<std::vector<std::string>> references_;
  std::unique_ptr<GridVineNetwork> net_;
};

}  // namespace

std::unique_ptr<Workload> MakeScaleSharded(uint64_t seed, bool smoke) {
  return std::make_unique<ScaleSharded>(seed, smoke);
}

}  // namespace gvbench
