#ifndef GRIDVINE_BENCH_BENCH_JSON_H_
#define GRIDVINE_BENCH_BENCH_JSON_H_

// Shared JSON reporting for the hand-rolled experiment benches (E1..E7),
// mirroring the flags google-benchmark binaries already understand:
//
//   --benchmark_format=json         print a JSON document on stdout (after
//                                   the human-readable tables)
//   --benchmark_out=FILE            write the JSON document to FILE
//   --benchmark_out_format=json     accepted for symmetry (JSON is the only
//                                   supported format)
//
// The document matches google-benchmark's envelope — {"context": ...,
// "benchmarks": [...]} — so scripts/run_bench.sh can treat every bench
// binary uniformly. Benches record one entry per result row via Add().
// Every value is written in its shortest round-trip form, so a count reads
// back exactly (1029001, not 1.029e+06).

#include <charconv>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace gridvine {
namespace bench {

class BenchJson {
 public:
  BenchJson(int argc, char** argv, std::string bench_name)
      : name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto value_of = [&arg](const std::string& prefix) -> std::string {
        return arg.substr(prefix.size());
      };
      if (arg.rfind("--benchmark_format=", 0) == 0) {
        stdout_json_ = value_of("--benchmark_format=") == "json";
      } else if (arg.rfind("--benchmark_out=", 0) == 0) {
        out_file_ = value_of("--benchmark_out=");
      }
      // --benchmark_out_format is accepted and ignored (always json).
    }
  }

  /// Records one result row, e.g.
  ///   json.Add("chain_4/iterative", {{"results", 12}, {"messages", 84}});
  void Add(const std::string& row_name,
           std::initializer_list<std::pair<const char*, double>> metrics) {
    Row row;
    row.name = name_ + "/" + row_name;
    for (const auto& [k, v] : metrics) row.metrics.emplace_back(k, v);
    rows_.push_back(std::move(row));
  }

  /// Same, for metric lists built up at runtime (names included).
  void Add(const std::string& row_name,
           std::vector<std::pair<std::string, double>> metrics) {
    Row row;
    row.name = name_ + "/" + row_name;
    row.metrics = std::move(metrics);
    rows_.push_back(std::move(row));
  }

  /// Emits the JSON document; call once, at the end of main().
  void Finish() const {
    if (!stdout_json_ && out_file_.empty()) return;
    std::string doc = Render();
    if (!out_file_.empty()) {
      std::ofstream out(out_file_);
      out << doc;
    }
    if (stdout_json_) std::fputs(doc.c_str(), stdout);
  }

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };

  static void AppendEscaped(std::ostringstream& os, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
  }

  /// The shortest text that parses back to exactly `v`.
  static void AppendNumber(std::ostringstream& os, double v) {
    char buf[32];
    const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
    os.write(buf, res.ptr - buf);
  }

  std::string Render() const {
    std::ostringstream os;
    os << "{\n  \"context\": {\"executable\": \"";
    AppendEscaped(os, name_);
    os << "\"},\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      os << "    {\"name\": \"";
      AppendEscaped(os, row.name);
      os << "\", \"run_type\": \"iteration\"";
      for (const auto& [k, v] : row.metrics) {
        os << ", \"" << k << "\": ";
        AppendNumber(os, v);
      }
      os << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
  }

  std::string name_;
  bool stdout_json_ = false;
  std::string out_file_;
  std::vector<Row> rows_;
};

}  // namespace bench
}  // namespace gridvine

#endif  // GRIDVINE_BENCH_BENCH_JSON_H_
