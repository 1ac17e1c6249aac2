// BenchJson (bench/bench_json.h) writes every value in its shortest
// round-trip form: a count of a million or more reads back exactly, and so
// does any double.

#include "bench_json.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace gridvine {
namespace {

/// The number after `"key": ` in `doc`, parsed back to a double.
double ValueOf(const std::string& doc, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const size_t at = doc.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return -1;
  return std::strtod(doc.c_str() + at + tag.size(), nullptr);
}

TEST(BenchJsonTest, ValuesReadBackExactlyFromBenchmarkOut) {
  const std::string path = ::testing::TempDir() + "bench_json_test.json";
  std::string out_flag = "--benchmark_out=" + path;
  char name[] = "bench_json_test";
  char format[] = "--benchmark_out_format=json";
  char* argv[] = {name, out_flag.data(), format};
  bench::BenchJson json(3, argv, "bench_json_test");
  const double third = 1.0 / 3.0;
  json.Add("row", {{"bytes", 1029001},
                   {"sent", 1494180},
                   {"third", third},
                   {"sum", 0.1 + 0.2}});
  json.Finish();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  EXPECT_NE(doc.find("\"name\": \"bench_json_test/row\""), std::string::npos);
  EXPECT_NE(doc.find("\"bytes\": 1029001,"), std::string::npos) << doc;
  EXPECT_EQ(ValueOf(doc, "bytes"), 1029001.0);
  EXPECT_EQ(ValueOf(doc, "sent"), 1494180.0);
  EXPECT_EQ(ValueOf(doc, "third"), third);
  EXPECT_EQ(ValueOf(doc, "sum"), 0.1 + 0.2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gridvine
