// Interactive GridVine shell — the closest thing to the paper's live
// demonstration: a simulated network you can feed schemas, mappings and
// N-Triples data, then query with RDQL. Reads commands from stdin (also
// scriptable through a pipe).
//
//   $ ./examples/gridvine_shell
//   gridvine> help
//
// Example session:
//   schema EMBL bio Organism,SequenceLength
//   schema EMP bio SystematicName
//   triple <embl:A78712> <EMBL#Organism> "Aspergillus niger" .
//   triple <emp:NEN94295> <EMP#SystematicName> "Aspergillus niger" .
//   map EMBL EMP EMBL#Organism>EMP#SystematicName
//   query SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")
//   stats

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "common/string_util.h"
#include "gridvine/query_frontend.h"
#include "query/rdql_parser.h"
#include "rdf/ntriples.h"
#include "workload/bio_workload.h"
#include "gridvine/gridvine_network.h"

using namespace gridvine;

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  schema <name> <domain> <attr1,attr2,...>   share a schema\n"
      "  triple <s> <p> \"o\" .                       share one N-Triples "
      "line\n"
      "  map <src> <dst> <sAttr>ToAttr[;...]        share a bidirectional "
      "mapping\n"
      "                                             (correspondences "
      "'src#a>dst#b')\n"
      "  query <RDQL>                               run a query "
      "(reformulation on)\n"
      "  queryplain <RDQL>                          run without "
      "reformulation\n"
      "  cquery <RDQL>                              conjunctive query "
      "(bind-join)\n"
      "  cquerycollect <RDQL>                       conjunctive, "
      "collect-then-join\n"
      "  plan explain <RDQL>                        physical plan + "
      "estimated/observed rows\n"
      "  demo                                       load a small "
      "bioinformatic corpus\n"
      "  stats                                      network statistics\n"
      "  cache stats                                extent-cache totals "
      "across peers\n"
      "  frontend stats                             query-frontend totals "
      "across peers\n"
      "  mem                                        per-component memory "
      "footprint\n"
      "  trace on|off                               toggle span recording\n"
      "  trace dump [file]                          export Chrome trace "
      "JSON\n"
      "  metrics [prefix|file]                      unified metrics JSON; a "
      "prefix\n"
      "                                             like 'gv.cache' filters "
      "names,\n"
      "                                             a path ('/' or .json) "
      "writes\n"
      "  health on [window_s]                       start the windowed "
      "watchdog\n"
      "  health                                     sample now + list "
      "violations\n"
      "  top [n]                                    busiest metrics in the "
      "latest\n"
      "                                             window (by |delta|)\n"
      "  timeseries [file]                          windowed metrics "
      "history JSON\n"
      "  help | quit\n"
      "flags: --shards N runs the deployment on the sharded engine\n");
}

}  // namespace

int main(int argc, char** argv) {
  GridVineNetwork::Options options;
  options.num_peers = 32;
  options.key_depth = 24;
  options.seed = 1;
  options.latency = GridVineNetwork::LatencyKind::kConstant;
  options.latency_param = 0.02;
  options.peer.query_timeout = 5.0;
  // The serving layer is on: responder-side extent caching, and every query
  // enters through the issuing peer's QueryFrontend ('frontend stats').
  options.peer.cache.enabled = true;
  // Statistics too, so 'plan explain' and conjunctive queries show the
  // cost-based/adaptive pipeline (stale caches degrade to greedy).
  options.peer.stats.enabled = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      options.shards = uint32_t(std::max(1, std::atoi(argv[++i])));
    } else {
      std::fprintf(stderr, "usage: %s [--shards N]\n", argv[0]);
      return 2;
    }
  }
  GridVineNetwork net(options);
  if (options.shards > 1) {
    std::printf(
        "GridVine shell — %zu simulated peers on %u shards. Type 'help'.\n",
        net.size(), options.shards);
  } else {
    std::printf("GridVine shell — %zu simulated peers. Type 'help'.\n",
                net.size());
  }

  size_t next_peer = 0;
  size_t last_peer = 0;  // most recent issuer — 'plan explain' reads its cache
  auto pick_peer = [&]() {
    last_peer = next_peer++ % net.size();
    return last_peer;
  };

  std::string line;
  std::printf("gridvine> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      // fallthrough to prompt
    } else if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "schema") {
      std::string name, domain, attrs;
      in >> name >> domain >> attrs;
      Schema schema(name, domain, Split(attrs, ','));
      Status st = net.InsertSchema(pick_peer(), schema);
      std::printf(st.ok() ? "ok: %s\n" : "error: %s\n",
                  st.ok() ? schema.Serialize().c_str()
                          : st.ToString().c_str());
    } else if (cmd == "triple") {
      std::string rest;
      std::getline(in, rest);
      auto triple = ParseNTriplesLine(rest);
      if (!triple.ok()) {
        std::printf("error: %s\n", triple.status().ToString().c_str());
      } else {
        Status st = net.InsertTriple(pick_peer(), *triple);
        std::printf(st.ok() ? "ok: %s\n" : "error: %s\n",
                    st.ok() ? triple->ToString().c_str()
                            : st.ToString().c_str());
      }
    } else if (cmd == "map") {
      std::string src, dst, corr;
      in >> src >> dst >> corr;
      SchemaMapping m(src + "-" + dst, src, dst);
      m.set_bidirectional(true);
      Status st;
      for (const auto& pair : Split(corr, ';')) {
        size_t gt = pair.find('>');
        if (gt == std::string::npos) {
          st = Status::InvalidArgument("correspondence needs 'a>b': " + pair);
          break;
        }
        st = m.AddCorrespondence(pair.substr(0, gt), pair.substr(gt + 1));
        if (!st.ok()) break;
      }
      if (st.ok()) st = net.InsertMapping(pick_peer(), m);
      if (st.ok()) {
        std::printf("ok: %zu correspondence(s)\n", m.size());
      } else {
        std::printf("error: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "query" || cmd == "queryplain") {
      std::string rest;
      std::getline(in, rest);
      auto q = ParseRdqlSingle(rest);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
      } else {
        GridVinePeer::QueryOptions qopts;
        qopts.reformulate = (cmd == "query");
        auto res = net.ServeFor(pick_peer(), *q, qopts);
        if (!res.status.ok()) {
          std::printf("error: %s\n", res.status.ToString().c_str());
        } else {
          for (const auto& item : res.items) {
            std::printf("  %-24s [%s, %d mapping(s), %.0f ms]\n",
                        item.value.value().c_str(), item.schema.c_str(),
                        item.mapping_path_len, item.arrival * 1000);
          }
          std::printf("%zu result(s), %zu schema(s), %.0f ms\n",
                      res.items.size(), res.schemas_answered,
                      res.latency * 1000);
        }
      }
    } else if (cmd == "cquery" || cmd == "cquerycollect") {
      std::string rest;
      std::getline(in, rest);
      auto q = ParseRdql(rest);
      if (!q.ok()) {
        std::printf("error: %s\n", q.status().ToString().c_str());
      } else {
        GridVinePeer::QueryOptions qopts;
        qopts.bind_join = (cmd == "cquery");
        auto res = net.ServeForConjunctive(pick_peer(), *q, qopts);
        if (!res.status.ok()) {
          std::printf("error: %s\n", res.status.ToString().c_str());
        } else {
          for (const auto& row : res.rows) {
            std::string printed;
            for (const auto& [var, term] : row) {
              if (!printed.empty()) printed += "  ";
              printed += "?" + var + "=" + term.value();
            }
            std::printf("  %s\n", printed.c_str());
          }
          std::printf(
              "%zu row(s), %.0f ms; shipped %llu row(s) "
              "(%llu scan / %llu probe / %llu bound)\n",
              res.rows.size(), res.latency * 1000,
              (unsigned long long)res.metrics.RowsShipped(),
              (unsigned long long)res.metrics.scan_rows,
              (unsigned long long)res.metrics.probe_rows,
              (unsigned long long)res.metrics.bound_rows);
        }
      }
    } else if (cmd == "demo") {
      BioWorkload::Options wl;
      wl.num_schemas = 6;
      wl.num_entities = 60;
      wl.entities_per_schema = 20;
      BioWorkload workload(wl);
      for (size_t s = 0; s < workload.schemas().size(); ++s) {
        net.InsertSchema(s, workload.schemas()[s]);
        for (const auto& t : workload.TriplesFor(s)) net.InsertTriple(s, t);
        if (s > 0) {
          net.InsertMapping(
              s, workload.GroundTruthMapping(s - 1, s,
                                             "demo-" + std::to_string(s)));
        }
      }
      std::printf("loaded %zu schemas / %zu triples; try:\n  query SELECT ?x "
                  "WHERE (?x, <%s>, \"%%Aspergillus%%\")\n",
                  workload.schemas().size(), workload.TotalTriples(),
                  workload.AttributeFor(0, "organism").c_str());
    } else if (cmd == "stats") {
      // network() is null on the sharded engine; the aggregate view is the
      // same counters folded across lanes.
      const NetworkStats s = net.engine() ? net.engine()->AggregateStats()
                                          : net.network()->stats();
      std::printf("messages sent/delivered/dropped: %llu/%llu/%llu, "
                  "bytes: %llu\n",
                  (unsigned long long)s.messages_sent,
                  (unsigned long long)s.messages_delivered,
                  (unsigned long long)s.messages_dropped,
                  (unsigned long long)s.bytes_sent);
      size_t triples = 0;
      for (size_t i = 0; i < net.size(); ++i) {
        triples += net.peer(i)->local_db().size();
      }
      std::printf("local DB entries across peers: %zu\n", triples);
    } else if (cmd == "cache") {
      std::string arg;
      in >> arg;
      if (arg != "stats") {
        std::printf("usage: cache stats\n");
      } else {
        uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
        size_t entries = 0, bytes = 0;
        for (size_t i = 0; i < net.size(); ++i) {
          const ExtentCache* c = net.peer(i)->cache();
          if (c == nullptr) continue;
          hits += c->stats().hits;
          misses += c->stats().misses;
          evictions += c->stats().evictions;
          invalidations += c->stats().invalidations;
          entries += c->entries();
          bytes += c->bytes();
        }
        double total = double(hits + misses);
        std::printf("extent cache: %llu hit(s) / %llu miss(es) (%.0f%% hit "
                    "rate), %llu eviction(s), %llu invalidation(s)\n",
                    (unsigned long long)hits, (unsigned long long)misses,
                    total > 0 ? 100.0 * double(hits) / total : 0.0,
                    (unsigned long long)evictions,
                    (unsigned long long)invalidations);
        std::printf("cached extents across peers: %zu entries, %zu bytes\n",
                    entries, bytes);
      }
    } else if (cmd == "frontend") {
      std::string arg;
      in >> arg;
      if (arg != "stats") {
        std::printf("usage: frontend stats\n");
      } else {
        QueryFrontend::Stats total;
        for (size_t i = 0; i < net.size(); ++i) {
          // Peers that never served a query have no frontend to report.
          const QueryFrontend* f = std::as_const(*net.peer(i)).frontend();
          if (f == nullptr) continue;
          QueryFrontend::Stats s = f->stats();
          total.submitted += s.submitted;
          total.started += s.started;
          total.completed += s.completed;
          total.shed += s.shed;
          total.max_queue_depth =
              std::max(total.max_queue_depth, s.max_queue_depth);
          total.active += s.active;
          total.queued += s.queued;
        }
        std::printf("frontend: %llu submitted, %llu started, %llu completed, "
                    "%llu shed\n",
                    (unsigned long long)total.submitted,
                    (unsigned long long)total.started,
                    (unsigned long long)total.completed,
                    (unsigned long long)total.shed);
        std::printf("live: %llu active, %llu queued; deepest queue seen: "
                    "%llu\n",
                    (unsigned long long)total.active,
                    (unsigned long long)total.queued,
                    (unsigned long long)total.max_queue_depth);
      }
    } else if (cmd == "mem") {
      std::vector<std::pair<std::string, size_t>> breakdown;
      size_t total = net.MemoryFootprint(&breakdown);
      for (const auto& [part, bytes] : breakdown) {
        std::printf("  %-16s %12zu bytes\n", part.c_str(), bytes);
      }
      std::printf("  %-16s %12zu bytes (%.0f per peer, %zu peers)\n",
                  "total", total, double(total) / double(net.size()),
                  net.size());
    } else if (cmd == "plan") {
      std::string sub;
      in >> sub;
      std::string rest;
      std::getline(in, rest);
      if (sub != "explain" || rest.empty()) {
        std::printf("usage: plan explain <RDQL>\n");
      } else {
        auto q = ParseRdql(rest);
        if (!q.ok()) {
          std::printf("error: %s\n", q.status().ToString().c_str());
        } else {
          // The most recent issuer explains, so 'cquery' followed by
          // 'plan explain' shows the sketches and observed-row feedback
          // that query left in its statistics cache.
          GridVinePeer::QueryOptions qopts;
          std::printf("issuer: peer %zu\n%s", last_peer,
                      net.peer(last_peer)
                          ->ExplainConjunctivePlan(*q, qopts)
                          .c_str());
        }
      }
    } else if (cmd == "trace") {
      std::string arg, file;
      in >> arg >> file;
      if (arg == "on") {
        net.tracer()->Enable();
        std::printf("ok: tracing on\n");
      } else if (arg == "off") {
        net.tracer()->Disable();
        std::printf("ok: tracing off\n");
      } else if (arg == "dump") {
        std::string json = net.tracer()->ToChromeJson();
        if (file.empty()) {
          std::printf("%s\n", json.c_str());
        } else {
          std::ofstream out(file);
          out << json << "\n";
          std::printf("ok: %zu span(s) -> %s\n", net.tracer()->size(),
                      file.c_str());
        }
      } else {
        std::printf("usage: trace on|off|dump [file]\n");
      }
    } else if (cmd == "metrics") {
      std::string arg;
      in >> arg;
      bool is_file = arg.find('/') != std::string::npos ||
                     (arg.size() > 5 &&
                      arg.compare(arg.size() - 5, 5, ".json") == 0);
      if (!arg.empty() && !is_file) {
        // Prefix filter: 'metrics gv.cache' lists just that family.
        size_t shown = 0;
        for (const auto& [name, value] : net.CollectMetrics().Flatten()) {
          if (name.compare(0, arg.size(), arg) != 0) continue;
          std::printf("  %-40s %.6g\n", name.c_str(), value);
          ++shown;
        }
        std::printf("%zu metric(s) matching '%s'\n", shown, arg.c_str());
      } else {
        std::string json = net.CollectMetrics().ToJson();
        if (arg.empty()) {
          std::printf("%s\n", json.c_str());
        } else {
          std::ofstream out(arg);
          out << json << "\n";
          std::printf("ok: metrics -> %s\n", arg.c_str());
        }
      }
    } else if (cmd == "health") {
      std::string arg;
      in >> arg;
      if (arg == "on") {
        double window = 0.5;
        in >> window;
        net.EnableHealth(window);
        std::printf("ok: health watchdog on (window %.3fs)\n", window);
      } else if (arg.empty()) {
        net.HealthTick();
        const HealthWatchdog* wd = net.watchdog();
        std::printf("health: %zu window(s) evaluated, %zu violation(s)\n",
                    wd->windows_evaluated(), wd->violations().size());
        size_t from = wd->violations().size() > 10
                          ? wd->violations().size() - 10
                          : 0;
        for (size_t i = from; i < wd->violations().size(); ++i) {
          const auto& v = wd->violations()[i];
          std::printf("  [t=%.3f] %-14s %s\n", v.window_end, v.rule.c_str(),
                      v.detail.c_str());
        }
      } else {
        std::printf("usage: health [on [window_s]]\n");
      }
    } else if (cmd == "top") {
      int n = 15;
      in >> n;
      net.HealthTick();
      auto rows = net.timeseries()->LatestWindow();
      std::printf("  %-40s %14s %14s\n", "metric", "value", "delta");
      for (const auto& row : rows) {
        if (n-- <= 0) break;
        std::printf("  %-40s %14.6g %+14.6g\n", row.name.c_str(), row.value,
                    row.delta);
      }
    } else if (cmd == "timeseries") {
      std::string file;
      in >> file;
      std::string json = net.timeseries()->ToJson(net.health_window());
      if (file.empty()) {
        std::printf("%s\n", json.c_str());
      } else {
        std::ofstream out(file);
        out << json;
        std::printf("ok: %zu sample(s) over %zu window(s) -> %s\n",
                    net.timeseries()->size(), net.timeseries()->windows(),
                    file.c_str());
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    std::printf("gridvine> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
