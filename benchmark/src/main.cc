// gridvine_bench — one workload of the GridVine benchmark per process.
//
//   gridvine_bench --workload W --seed N [--seconds S] [--trace 0|1]
//                  [--smoke] [--out DIR] [--git-sha SHA] [--git-dirty 0|1]
//
// Untraced (--trace 0): repeats passes of the workload's fixed work until
// --seconds have elapsed (at least three), checks every answer and that all
// passes produced identical simulated outputs, and reports the end-to-end
// metrics. Traced (--trace 1): alternates untraced and traced passes, then
// runs the layer probes, and reports the per-layer metrics plus the
// tracing overhead; bench-side host spans go to DIR/trace_<W>.json.
//
// Every metric is printed as "name value unit"; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the full result with
// provenance is written to DIR. Exit status is 0 only when every
// correctness check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace gvbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json (the --smoke
// run of benchmark/run.sh checks that they do).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"host_op_us_p50", "us"},
    {"host_op_us_tail", "us"},
    {"peak_rss_mb", "MB"},
    {"sim_latency_p50_s", "s"},
    {"sim_latency_tail_s", "s"},
    {"recall", "fraction"},
    {"ok_frac", "fraction"},
    {"messages_per_op", "count"},
    {"bytes_per_op", "bytes"},
};

const MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.messages_dropped", "count"},
    {"sim.shard.epochs", "count"},
    {"sim.shard.events_per_epoch", "count"},
    {"pgrid.hops_p50", "count"},
    {"pgrid.hops_tail", "count"},
    {"pgrid.forwards_per_op", "count"},
    {"pgrid.retries_per_op", "count"},
    {"pgrid.failovers", "count"},
    {"pgrid.timeouts", "count"},
    {"pgrid.routing_dead_ends", "count"},
    {"gridvine.dispatch_retries_per_query", "count"},
    {"gridvine.frontend.shed", "count"},
    {"gridvine.frontend.max_queue_depth", "count"},
    {"gridvine.batch.items_per_flush", "count"},
    {"gridvine.cp_queue_share", "fraction"},
    {"gridvine.cp_service_share", "fraction"},
    {"gridvine.cp_network_share", "fraction"},
    {"gridvine.cp_retry_share", "fraction"},
    {"gridvine.max_rate_qps", "1/s"},
    {"store.select_us_p50", "us"},
    {"store.select_us_tail", "us"},
    {"store.rows_per_select", "count"},
    {"store.join_us_p50", "us"},
    {"store.bytes_per_triple", "bytes"},
    {"query.rows_shipped_per_op", "count"},
    {"query.cache.hit_rate", "fraction"},
    {"query.cache.invalidations", "count"},
    {"query.cache.negative_hits", "count"},
    {"query.plan_us", "us"},
    {"query.stats.sketch_us", "us"},
    {"query.reformulation.per_query", "count"},
    {"query.reformulation.answered_ratio", "fraction"},
    {"query.reformulation.expand_us", "us"},
    {"selforg.round_s_p50", "s"},
    {"selforg.round_s_tail", "s"},
    {"selforg.rounds_to_interop", "rounds"},
    {"selforg.recall_recovery", "ratio"},
    {"selforg.mappings_created", "count"},
    {"selforg.mappings_deprecated", "count"},
    {"selforg.stale_deprecated", "count"},
    {"selforg.bp_messages", "count"},
    {"selforg.kept_ratio", "fraction"},
    {"trace.overhead_pct", "%"},
    {"trace.evicted", "count"},
};

// Every untraced run makes at least this many passes, so each per-operation
// host time and setup_s are medians of at least three samples.
constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out = "build/benchmark/results";
  std::string git_sha = "unknown";
  int git_dirty = -1;  // unknown
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gridvine_bench: %s\nusage: gridvine_bench --workload W "
               "--seed N [--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--git-sha SHA] [--git-dirty 0|1]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      // Accepts both "--trace" and "--trace 0|1".
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        a.trace = argv[++i][0] == '1';
      } else {
        a.trace = true;
      }
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--git-sha") {
      a.git_sha = value();
    } else if (flag == "--git-dirty") {
      a.git_dirty = std::atoi(value().c_str());
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "lookup_planetlab") {
    return MakeLookupPlanetlab(a.seed, a.smoke);
  }
  if (a.workload == "selforg_mediation") {
    return MakeSelforgMediation(a.seed, a.smoke);
  }
  if (a.workload == "serving_flash_crowd") {
    return MakeServingFlashCrowd(a.seed, a.smoke);
  }
  if (a.workload == "scale_sharded") return MakeScaleSharded(a.seed, a.smoke);
  Usage(("unknown workload " + a.workload).c_str());
}

/// One reported metric; tails carry their percentile and sample count.
struct Reported {
  const MetricDef* def;
  double value = 0;
  double tail_pct = -1;
  size_t samples = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string UtcNow() {
  char buf[32];
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Set(const MetricDef& def, double value) { Add({&def, value}); }
  void SetTail(const MetricDef& def, const Tail& t) {
    Add({&def, t.value, t.pct, t.samples});
  }
  void Error(const std::string& e) { errors_.push_back(e); }
  void Count(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void SetPasses(size_t passes) { passes_ = passes; }
  bool correct() const { return errors_.empty(); }

  /// Prints the metric lines and the final JSON line; writes the result
  /// file. Returns the process exit status.
  int Emit(const std::vector<std::pair<std::string, double>>& params) {
    for (const Reported& r : metrics_) {
      std::printf("%s %.9g %s\n", r.def->name, r.value, r.def->unit);
    }
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "correctness: %s\n", e.c_str());
    }
    std::string metrics = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Reported& r = metrics_[i];
      metrics += std::string(i ? ", " : "") + "\"" + r.def->name +
                 "\": {\"value\": " + Num(r.value) + ", \"unit\": \"" +
                 r.def->unit + "\"}";
    }
    metrics += "}";
    const std::string status = std::string("\"correct\": ") +
                               (correct() ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(attempted_) +
                               ", \"failed\": " + std::to_string(failed_);
    WriteResult(params, status);
    std::printf("{%s, \"metrics\": %s}\n", status.c_str(), metrics.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
  }

 private:
  void Add(Reported r) {
    if (!std::isfinite(r.value)) {
      Error(std::string("metric ") + r.def->name + " is not finite");
      r.value = 0;
    }
    metrics_.push_back(r);
  }

  void WriteResult(const std::vector<std::pair<std::string, double>>& params,
                   const std::string& status) {
    const std::string path = args_.out + "/" + args_.workload + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             (args_.trace ? "1" : "0") + "-" +
                             std::to_string(std::time(nullptr)) + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
                 JsonEscape(args_.workload).c_str(),
                 (unsigned long long)args_.seed);
    std::fprintf(f, "  \"trace\": %s,\n  \"smoke\": %s,\n  %s,\n",
                 args_.trace ? "true" : "false",
                 args_.smoke ? "true" : "false", status.c_str());
    std::fprintf(f,
                 "  \"provenance\": {\"git_sha\": \"%s\", \"git_dirty\": %d, "
                 "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
                 "\"seconds\": %s, \"passes\": %zu, \"date\": \"%s\"},\n",
                 JsonEscape(args_.git_sha).c_str(), args_.git_dirty,
                 GV_BENCH_BUILD_TYPE, GV_BENCH_COMPILER,
                 std::thread::hardware_concurrency(), Num(args_.seconds).c_str(),
                 passes_, UtcNow().c_str());
    std::fprintf(f, "  \"params\": {");
    for (size_t i = 0; i < params.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", params[i].first.c_str(),
                   Num(params[i].second).c_str());
    }
    std::fprintf(f, "},\n  \"errors\": [");
    for (size_t i = 0; i < errors_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                   JsonEscape(errors_[i]).c_str());
    }
    std::fprintf(f, "],\n  \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Reported& r = metrics_[i];
      std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"",
                   i ? "," : "", r.def->name, Num(r.value).c_str(),
                   r.def->unit);
      if (r.tail_pct >= 0) {
        std::fprintf(f, ", \"tail_pct\": %s, \"samples\": %zu",
                     Num(r.tail_pct).c_str(), r.samples);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  }\n}\n");
    if (std::fclose(f) != 0) std::fprintf(stderr, "error writing %s\n", path.c_str());
  }

  const Args& args_;
  std::vector<Reported> metrics_;
  std::vector<std::string> errors_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t passes_ = 0;
};

const MetricDef& Def(const MetricDef* table, size_t n, const char* name) {
  for (size_t i = 0; i < n; ++i) {
    if (std::strcmp(table[i].name, name) == 0) return table[i];
  }
  std::fprintf(stderr, "gridvine_bench: undeclared metric %s\n", name);
  std::abort();
}

const MetricDef& E2e(const char* name) {
  return Def(kEndToEnd, std::size(kEndToEnd), name);
}

/// Passes over identical inputs must agree bit for bit: the engine is
/// deterministic, and tracing only observes.
void CheckDeterminism(const std::vector<Pass>& passes, Report* report) {
  for (size_t i = 0; i < passes.size(); ++i) {
    for (const std::string& e : passes[i].errors) {
      report->Error("pass " + std::to_string(i) + ": " + e);
    }
    report->Count(passes[i].attempted, passes[i].failed);
    if (passes[i].digest.value() != passes[0].digest.value()) {
      report->Error("pass " + std::to_string(i) +
                    " produced different simulated outputs than pass 0");
    }
  }
}

/// Each operation's host time as its median over the passes. Passes replay
/// identical inputs, so sample i of every pass times the same operation; a
/// stall that hits one pass then cannot reach the percentiles.
std::vector<double> PerOpMedian(const std::vector<Pass>& passes) {
  size_t n = passes[0].host_op_us.size();
  for (const Pass& p : passes) n = std::min(n, p.host_op_us.size());
  std::vector<double> out(n);
  std::vector<double> samples(passes.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < passes.size(); ++k) {
      samples[k] = passes[k].host_op_us[i];
    }
    out[i] = Median(samples);
  }
  return out;
}

int RunUntraced(const Args& args, Workload& w) {
  Report report(args);
  std::vector<Pass> passes;
  // Passes repeat while the next one is predicted to end within --seconds,
  // and at least kMinPasses times.
  double last_pass_s = 0;
  const auto start = Clock::now();
  while (passes.size() < kMinPasses ||
         SecondsSince(start) + last_pass_s <= args.seconds) {
    const auto p0 = Clock::now();
    passes.push_back(w.RunPass(nullptr));
    last_pass_s = SecondsSince(p0);
  }
  CheckDeterminism(passes, &report);
  report.SetPasses(passes.size());

  std::vector<double> setup, run;
  for (const Pass& p : passes) {
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    run.push_back(p.run_s);
  }
  const std::vector<double> host_us = PerOpMedian(passes);
  // Simulated metrics are a function of the inputs alone; pass 0 stands for
  // all of them (CheckDeterminism proved them equal).
  const Pass& p = passes[0];
  report.Set(E2e("setup_s"), Median(setup));
  report.Set(E2e("run_s"), Median(run));
  report.Set(E2e("host_op_us_p50"), Median(host_us));
  report.SetTail(E2e("host_op_us_tail"), TailOf(host_us));
  report.Set(E2e("peak_rss_mb"), PeakRssMb());
  report.Set(E2e("sim_latency_p50_s"), Median(p.sim_latency_s));
  report.SetTail(E2e("sim_latency_tail_s"), TailOf(p.sim_latency_s));
  report.Set(E2e("recall"), p.recall_n ? p.recall_sum / double(p.recall_n) : 0);
  report.Set(E2e("ok_frac"),
             p.attempted ? 1.0 - double(p.failed) / double(p.attempted) : 0);
  report.Set(E2e("messages_per_op"),
             p.ops ? double(p.messages) / double(p.ops) : 0);
  report.Set(E2e("bytes_per_op"), p.ops ? double(p.bytes) / double(p.ops) : 0);
  if (p.ops == 0) report.Error("no operation completed");
  return report.Emit(w.Params());
}

int RunTraced(const Args& args, Workload& w) {
  Report report(args);
  std::vector<Pass> untraced, traced, all;
  HostSpans spans;
  double last_pair_s = 0;
  const auto start = Clock::now();
  do {
    const auto p0 = Clock::now();
    untraced.push_back(w.RunPass(nullptr));
    spans.Clear();
    traced.push_back(w.RunPass(&spans));
    all.push_back(untraced.back());
    all.push_back(traced.back());
    last_pair_s = SecondsSince(p0);
  } while (SecondsSince(start) + last_pair_s <= args.seconds);
  CheckDeterminism(all, &report);
  report.SetPasses(all.size());

  // Counter-derived layer values: median over the untraced passes (equal
  // across passes except the host-time ratios).
  MetricMap layer;
  for (const auto& [name, value] : untraced[0].layer) {
    std::vector<double> v;
    for (const Pass& p : untraced) v.push_back(p.layer.at(name));
    layer[name] = Median(v);
  }
  std::vector<double> rounds, run_u, run_t;
  for (const Pass& p : untraced) {
    rounds.insert(rounds.end(), p.round_s.begin(), p.round_s.end());
    run_u.push_back(p.run_s);
  }
  for (const Pass& p : traced) run_t.push_back(p.run_s);
  if (!rounds.empty()) {
    layer["selforg.round_s_p50"] = Median(rounds);
    layer["selforg.round_s_tail"] = TailOf(rounds).value;
  }

  const TraceStats& ts = traced.back().trace;
  const Tail hops_tail = TailOf(ts.hops);
  layer["pgrid.hops_p50"] = Median(ts.hops);
  layer["pgrid.hops_tail"] = hops_tail.value;
  layer["gridvine.dispatch_retries_per_query"] = Mean(ts.dispatch_retries);
  auto share = [&ts](double part) {
    return ts.cp.total > 0 ? part / ts.cp.total : 0.0;
  };
  layer["gridvine.cp_queue_share"] = share(ts.cp.queue);
  layer["gridvine.cp_service_share"] = share(ts.cp.service);
  layer["gridvine.cp_network_share"] = share(ts.cp.network);
  layer["gridvine.cp_retry_share"] = share(ts.cp.retry);
  if (ts.hops.empty()) report.Error("traced pass analysed no query traces");
  layer["trace.evicted"] = double(ts.evicted);
  if (ts.evicted != 0) report.Error("trace ring evicted spans");
  layer["trace.overhead_pct"] = (Median(run_t) / Median(run_u) - 1.0) * 100.0;

  // The probes run on the last (traced) pass's deployment, after every
  // timer has stopped.
  w.Probe(&layer);

  for (const MetricDef& def : kPerLayer) {
    auto it = layer.find(def.name);
    report.Set(def, it == layer.end() ? 0.0 : it->second);
    if (it != layer.end()) layer.erase(it);
  }
  for (const auto& [name, value] : layer) {
    report.Error("undeclared per-layer metric " + name);
  }
  const std::string trace_path = args.out + "/trace_" + args.workload + ".json";
  if (!spans.WriteChromeJson(trace_path)) {
    report.Error("cannot write " + trace_path);
  }
  return report.Emit(w.Params());
}

}  // namespace
}  // namespace gvbench

int main(int argc, char** argv) {
  const gvbench::Args args = gvbench::ParseArgs(argc, argv);
  std::unique_ptr<gvbench::Workload> w = gvbench::MakeWorkload(args);
  return args.trace ? gvbench::RunTraced(args, *w)
                    : gvbench::RunUntraced(args, *w);
}
