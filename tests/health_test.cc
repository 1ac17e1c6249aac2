#include "common/timeseries.h"

#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "common/trace.h"

namespace gridvine {
namespace {

TEST(MetricsTimeSeriesTest, RecordAppendsOneRowPerMetric) {
  MetricsTimeSeries ts;
  MetricsRegistry m;
  m.Counter("a") = 1;
  m.Gauge("b") = 2.5;
  ts.Record(1.0, m);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.windows(), 1u);
  EXPECT_DOUBLE_EQ(ts.last_window_end(), 1.0);
  m.Counter("a") = 3;
  ts.Record(2.0, m);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.windows(), 2u);
  auto series = ts.Series("a");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].second, 1.0);
  EXPECT_DOUBLE_EQ(series[1].second, 3.0);
}

TEST(MetricsTimeSeriesTest, RecordingSameInstantReplacesNotDuplicates) {
  // A manual HealthTick right after a timer tick lands on the same simulated
  // instant; the window must be replaced, not appended twice.
  MetricsTimeSeries ts;
  MetricsRegistry m;
  m.Counter("a") = 1;
  ts.Record(1.0, m);
  m.Counter("a") = 7;
  ts.Record(1.0, m);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.windows(), 1u);
  auto series = ts.Series("a");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0].second, 7.0);
}

TEST(MetricsTimeSeriesTest, RingEvictsOldestSamples) {
  MetricsTimeSeries ts(/*capacity=*/4);
  MetricsRegistry m;
  m.Counter("a") = 1;
  m.Counter("b") = 2;
  for (int w = 1; w <= 3; ++w) ts.Record(double(w), m);
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.evicted(), 2u);
  // Window 1 fell off; windows 2 and 3 survive.
  EXPECT_TRUE(ts.Series("a").empty() || ts.Series("a").front().first >= 2.0);
  EXPECT_EQ(ts.windows(), 2u);
}

TEST(MetricsTimeSeriesTest, LatestWindowDeltasAgainstPreviousWindow) {
  MetricsTimeSeries ts;
  MetricsRegistry m;
  m.Counter("big") = 100;
  m.Counter("small") = 10;
  ts.Record(1.0, m);
  m.Counter("big") = 150;   // delta 50
  m.Counter("small") = 11;  // delta 1
  m.Counter("fresh") = 3;   // new name: delta = value
  ts.Record(2.0, m);
  auto rows = ts.LatestWindow();
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by |delta| descending.
  EXPECT_EQ(rows[0].name, "big");
  EXPECT_DOUBLE_EQ(rows[0].delta, 50.0);
  EXPECT_DOUBLE_EQ(rows[0].value, 150.0);
  EXPECT_EQ(rows[1].name, "fresh");
  EXPECT_DOUBLE_EQ(rows[1].delta, 3.0);
  EXPECT_EQ(rows[2].name, "small");
  EXPECT_DOUBLE_EQ(rows[2].delta, 1.0);
}

TEST(MetricsTimeSeriesTest, ToJsonMatchesArtifactSchema) {
  MetricsTimeSeries ts;
  MetricsRegistry m;
  m.Counter("net.messages_sent") = 42;
  ts.Record(0.5, m);
  std::string json = ts.ToJson(/*window_s=*/0.5);
  EXPECT_NE(json.find("\"window_s\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"samples\": ["), std::string::npos);
  EXPECT_NE(json.find("\"t\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"net.messages_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 42"), std::string::npos);
}

TEST(HealthWatchdogTest, ConservationFiresOnFirstWindow) {
  // Conservation is cumulative, so it needs no previous window.
  HealthWatchdog dog;
  MetricsRegistry m;
  m.Counter("net.messages_sent") = 10;
  m.Counter("net.messages_delivered") = 12;  // two forged deliveries
  EXPECT_EQ(dog.Evaluate(1.0, &m), 1u);
  EXPECT_EQ(dog.fired("conservation"), 1u);
  ASSERT_EQ(dog.violations().size(), 1u);
  EXPECT_EQ(dog.violations()[0].rule, "conservation");
  EXPECT_DOUBLE_EQ(dog.violations()[0].window_end, 1.0);
}

TEST(HealthWatchdogTest, ConservationAllowsDuplicatedMessages) {
  HealthWatchdog dog;
  MetricsRegistry m;
  m.Counter("net.messages_sent") = 10;
  m.Counter("net.messages_duplicated") = 2;
  m.Counter("net.messages_delivered") = 11;
  m.Counter("net.messages_dropped") = 1;
  EXPECT_EQ(dog.Evaluate(1.0, &m), 0u);
}

TEST(HealthWatchdogTest, RetrySpikeNeedsDeltaAboveThresholdAndMinSends) {
  HealthWatchdog::Options opts;
  opts.retry_rate_threshold = 0.30;
  opts.retry_min_sends = 50;
  HealthWatchdog dog(opts);
  MetricsRegistry m;
  m.Counter("net.messages_sent") = 1000;
  m.Counter("pgrid.retries") = 500;  // huge cumulative ratio: ignored
  EXPECT_EQ(dog.Evaluate(1.0, &m), 0u);  // first window: no deltas yet

  // Quiet window: 100 sends, 10 retries.
  m.Counter("net.messages_sent") = 1100;
  m.Counter("pgrid.retries") = 510;
  EXPECT_EQ(dog.Evaluate(2.0, &m), 0u);

  // Spike window: 100 sends, 40 retries (> 0.30 * 100).
  m.Counter("net.messages_sent") = 1200;
  m.Counter("pgrid.retries") = 550;
  EXPECT_EQ(dog.Evaluate(3.0, &m), 1u);
  EXPECT_EQ(dog.fired("retry_spike"), 1u);

  // Same ratio but only 10 sends: below retry_min_sends, stays quiet.
  m.Counter("net.messages_sent") = 1210;
  m.Counter("pgrid.retries") = 554;
  EXPECT_EQ(dog.Evaluate(4.0, &m), 0u);
}

TEST(HealthWatchdogTest, CacheCollapseOnlyAfterCacheWasHot) {
  HealthWatchdog::Options opts;
  opts.cache_collapse_threshold = 0.05;
  opts.cache_min_lookups = 20;
  HealthWatchdog dog(opts);
  MetricsRegistry m;
  m.Counter("gv.cache.misses") = 0;
  m.Counter("gv.cache.hits") = 0;
  dog.Evaluate(1.0, &m);

  // Cold cache: 100 lookups, 0 hits — not a collapse, never was hot.
  m.Counter("gv.cache.misses") = 100;
  EXPECT_EQ(dog.Evaluate(2.0, &m), 0u);

  // Warm window: 50 hits.
  m.Counter("gv.cache.hits") = 50;
  m.Counter("gv.cache.misses") = 110;
  EXPECT_EQ(dog.Evaluate(3.0, &m), 0u);

  // Collapse window: 100 lookups, 1 hit (< 5%).
  m.Counter("gv.cache.hits") = 51;
  m.Counter("gv.cache.misses") = 209;
  EXPECT_EQ(dog.Evaluate(4.0, &m), 1u);
  EXPECT_EQ(dog.fired("cache_collapse"), 1u);
}

TEST(HealthWatchdogTest, ShedRateFiresAboveThreshold) {
  HealthWatchdog dog;  // defaults: 10% over >= 10 submitted
  MetricsRegistry m;
  m.Counter("gv.frontend.submitted") = 0;
  m.Counter("gv.frontend.shed") = 0;
  dog.Evaluate(1.0, &m);

  m.Counter("gv.frontend.submitted") = 20;
  m.Counter("gv.frontend.shed") = 5;  // 25% shed
  EXPECT_EQ(dog.Evaluate(2.0, &m), 1u);
  EXPECT_EQ(dog.fired("shed_rate"), 1u);

  // 25% again but only 4 submitted: below shed_min_submitted.
  m.Counter("gv.frontend.submitted") = 24;
  m.Counter("gv.frontend.shed") = 6;
  EXPECT_EQ(dog.Evaluate(3.0, &m), 0u);
}

TEST(HealthWatchdogTest, PublishesCumulativeCounters) {
  HealthWatchdog dog;
  MetricsRegistry m;
  m.Counter("net.messages_sent") = 1;
  m.Counter("net.messages_delivered") = 2;  // conservation violation
  dog.Evaluate(1.0, &m);
  // Evaluate stamps the health.* counters into the registry it was given.
  EXPECT_EQ(m.Counter("health.windows"), 1u);
  EXPECT_EQ(m.Counter("health.violations"), 1u);
  EXPECT_EQ(m.Counter("health.conservation"), 1u);
}

TEST(HealthWatchdogTest, ViolationEmitsTraceMarkerWhenTracing) {
  Tracer tracer;
  tracer.Enable();
  HealthWatchdog dog;
  dog.SetTracer(&tracer);
  MetricsRegistry m;
  m.Counter("net.messages_delivered") = 5;  // delivered > sent
  dog.Evaluate(1.0, &m);
  TraceAnalyzer an(tracer.Snapshot());
  EXPECT_EQ(an.CountNamed("health.violation"), 1u);
  EXPECT_EQ(an.CheckConsistency(), "");
}

}  // namespace
}  // namespace gridvine
