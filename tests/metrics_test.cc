#include "common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "datagen/datagen.h"
#include "index/indexed_document.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"

namespace lotusx::metrics {
namespace {

// ---------------------------------------------------------------- basics

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Registry registry;
  Counter* counter = registry.GetCounter("lotusx_test_total");
  EXPECT_EQ(counter->value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->value(), 42u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("lotusx_test_depth");
  gauge->Set(10);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Add(-10);
  EXPECT_EQ(gauge->value(), -3);  // gauges are signed
}

TEST(MetricsTest, GetOrCreateReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("lotusx_x_total", {{"k", "v"}});
  Counter* b = registry.GetCounter("lotusx_x_total", {{"k", "v"}});
  Counter* c = registry.GetCounter("lotusx_x_total", {{"k", "other"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Increment();
  EXPECT_EQ(b->value(), 1u);
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsTest, SameNameDifferentKindsCoexist) {
  Registry registry;
  // Counters, gauges, and histograms live in separate namespaces.
  Counter* counter = registry.GetCounter("lotusx_thing");
  Gauge* gauge = registry.GetGauge("lotusx_thing");
  counter->Increment(5);
  gauge->Set(-5);
  EXPECT_EQ(counter->value(), 5u);
  EXPECT_EQ(gauge->value(), -5);
}

TEST(MetricsTest, EnabledTogglesAndReturnsPrevious) {
  ASSERT_TRUE(Enabled());  // default on
  EXPECT_TRUE(SetEnabled(false));
  EXPECT_FALSE(Enabled());
  EXPECT_FALSE(SetEnabled(true));
  EXPECT_TRUE(Enabled());
}

// ------------------------------------------------------------- histogram

TEST(MetricsTest, HistogramBucketsObservations) {
  Histogram histogram({10.0, 100.0});
  histogram.Observe(5);     // bucket 0 (<= 10)
  histogram.Observe(10);    // bucket 0 (le is inclusive)
  histogram.Observe(50);    // bucket 1 (<= 100)
  histogram.Observe(1000);  // overflow bucket
  HistogramSnapshot snapshot = histogram.Snapshot();
  ASSERT_EQ(snapshot.counts.size(), 3u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 1065.0);
  EXPECT_DOUBLE_EQ(snapshot.Mean(), 1065.0 / 4.0);
}

TEST(MetricsTest, HistogramQuantiles) {
  Histogram histogram({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 50; ++i) histogram.Observe(0.5);  // bucket <=1
  for (int i = 0; i < 50; ++i) histogram.Observe(3.0);  // bucket <=4
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_LE(snapshot.Quantile(0.25), 1.0);
  double p99 = snapshot.Quantile(0.99);
  EXPECT_GT(p99, 2.0);
  EXPECT_LE(p99, 4.0);
  // Empty histogram quantiles are zero.
  EXPECT_DOUBLE_EQ(Histogram({1.0}).Snapshot().Quantile(0.5), 0.0);
}

TEST(MetricsTest, HistogramOverflowQuantileReportsLargestBound) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(100.0);
  EXPECT_DOUBLE_EQ(histogram.Snapshot().Quantile(0.99), 2.0);
}

TEST(MetricsTest, DefaultLatencyLadderIsSortedAndSpansUsecToSeconds) {
  const std::vector<double>& bounds = Histogram::LatencyBucketsUsec();
  ASSERT_GE(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_GE(bounds.back(), 1e6);  // at least one second
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ------------------------------------------------------------ exposition

TEST(MetricsTest, RenderTextExposesAllKinds) {
  Registry registry;
  registry.GetCounter("lotusx_req_total", {{"kind", "tag"}})->Increment(3);
  registry.GetGauge("lotusx_depth")->Set(2);
  Histogram* histogram =
      registry.GetHistogram("lotusx_lat_usec", {}, {10.0, 100.0});
  histogram->Observe(5);
  histogram->Observe(50);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("lotusx_req_total{kind=\"tag\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lotusx_depth 2"), std::string::npos) << text;
  // Cumulative buckets plus +Inf, _sum, _count.
  EXPECT_NE(text.find("lotusx_lat_usec_bucket{le=\"10\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lotusx_lat_usec_bucket{le=\"100\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lotusx_lat_usec_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lotusx_lat_usec_sum 55"), std::string::npos) << text;
  EXPECT_NE(text.find("lotusx_lat_usec_count 2"), std::string::npos) << text;
}

TEST(MetricsTest, RenderTextEscapesLabelValues) {
  Registry registry;
  registry.GetCounter("lotusx_q_total", {{"query", "a\"b\\c\nd"}})
      ->Increment();
  std::string text = registry.RenderText();
  EXPECT_NE(text.find(R"(query="a\"b\\c\nd")"), std::string::npos) << text;
}

TEST(MetricsTest, SnapshotAggregationHelpers) {
  Registry registry;
  registry.GetCounter("lotusx_hits_total", {{"shard", "0"}})->Increment(2);
  registry.GetCounter("lotusx_hits_total", {{"shard", "1"}})->Increment(3);
  registry.GetGauge("lotusx_depth")->Set(7);
  registry.GetHistogram("lotusx_lat_usec", {{"s", "a"}})->Observe(1);
  registry.GetHistogram("lotusx_lat_usec", {{"s", "b"}})->Observe(2);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("lotusx_hits_total"), 5u);
  EXPECT_EQ(snapshot.CounterTotal("lotusx_absent"), 0u);
  EXPECT_EQ(snapshot.HistogramCountTotal("lotusx_lat_usec"), 2u);
  EXPECT_EQ(snapshot.GaugeValueOr("lotusx_depth"), 7);
  EXPECT_EQ(snapshot.GaugeValueOr("lotusx_absent", -1), -1);
}

TEST(MetricsTest, ResetForTestZeroesButKeepsRegistrations) {
  Registry registry;
  Counter* counter = registry.GetCounter("lotusx_n_total");
  Histogram* histogram = registry.GetHistogram("lotusx_h_usec");
  counter->Increment(9);
  histogram->Observe(1);
  registry.ResetForTest();
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_EQ(histogram->count(), 0u);
  // Same pointer after reset.
  EXPECT_EQ(registry.GetCounter("lotusx_n_total"), counter);
}

TEST(MetricsTest, PlanExecutionFeedsThePostingCounters) {
  // One analyzed plan execution adds its posting-access counters to the
  // four lotusx_postings_* families of the default registry.
  bool was_enabled = SetEnabled(true);
  datagen::DblpOptions options;
  options.num_publications = 300;
  index::IndexedDocument indexed(datagen::GenerateDblp(options));
  auto query = twig::ParseQuery("//article[author]/title");
  ASSERT_TRUE(query.ok());
  twig::plan::PlannerHints hints;
  hints.algorithm = twig::Algorithm::kTwigStack;
  auto plan = twig::plan::Planner(indexed).Plan(*query, hints);
  ASSERT_TRUE(plan.ok());

  Registry& registry = Registry::Default();
  MetricsSnapshot before = registry.Snapshot();
  twig::plan::ExecuteOptions execute;
  execute.analyze = true;
  auto result = twig::plan::ExecutePlan(indexed, &*plan, execute);
  ASSERT_TRUE(result.ok());
  MetricsSnapshot after = registry.Snapshot();
  SetEnabled(was_enabled);

  const twig::EvalStats& stats = result->stats;
  EXPECT_GT(stats.posting_blocks_decoded, 0u);
  auto delta = [&](std::string_view name) {
    return after.CounterTotal(name) - before.CounterTotal(name);
  };
  EXPECT_EQ(delta("lotusx_postings_blocks_decoded_total"),
            stats.posting_blocks_decoded);
  EXPECT_EQ(delta("lotusx_postings_blocks_skipped_total"),
            stats.posting_blocks_skipped);
  EXPECT_EQ(delta("lotusx_postings_bytes_decoded_total"),
            stats.posting_bytes_decoded);
  std::string text = registry.RenderText();
  for (std::string_view family :
       {"lotusx_postings_blocks_decoded_total",
        "lotusx_postings_blocks_skipped_total",
        "lotusx_postings_bytes_decoded_total",
        "lotusx_postings_decode_usec_total"}) {
    EXPECT_NE(text.find(std::string(family) + " "), std::string::npos)
        << family << "\n" << text;
  }
}

// ------------------------------------------------------------ contention

TEST(MetricsTest, ConcurrentCounterIncrementsEqualSerialSum) {
  Registry registry;
  Counter* counter = registry.GetCounter("lotusx_contended_total");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, ConcurrentHistogramObservationsAllLand) {
  Histogram histogram({1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kObservations = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kObservations; ++i) {
        histogram.Observe(static_cast<double>(t % 3) * 40.0 + 0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot snapshot = histogram.Snapshot();
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kObservations;
  EXPECT_EQ(snapshot.count, kTotal);
  uint64_t bucket_sum = 0;
  for (uint64_t bucket : snapshot.counts) bucket_sum += bucket;
  EXPECT_EQ(bucket_sum, kTotal);
}

TEST(MetricsTest, SnapshotsWhileWritingAreNeverTorn) {
  // Writers observe the constant 1.0 while a reader snapshots: in every
  // snapshot the buckets and the sum must cover at least `count`
  // complete observations (the release/acquire pairing on count_).
  Histogram histogram({10.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) histogram.Observe(1.0);
    });
  }
  for (int i = 0; i < 2'000; ++i) {
    HistogramSnapshot snapshot = histogram.Snapshot();
    uint64_t bucket_sum = 0;
    for (uint64_t bucket : snapshot.counts) bucket_sum += bucket;
    ASSERT_GE(bucket_sum, snapshot.count);
    ASSERT_GE(snapshot.sum, static_cast<double>(snapshot.count));
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
}

TEST(MetricsTest, ConcurrentRegistrationIsSafe) {
  Registry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        Counter* counter = registry.GetCounter(
            "lotusx_race_total", {{"i", std::to_string(i % 4)}});
        counter->Increment();
        if (i == 0) seen[static_cast<size_t>(t)] = counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("lotusx_race_total"), 800u);
  for (Counter* counter : seen) EXPECT_EQ(counter, seen[0]);
}

}  // namespace
}  // namespace lotusx::metrics

namespace lotusx::trace {
namespace {

/// Keeps a StageSpan open long enough that its elapsed time is strictly
/// positive on any timer granularity.
void BurnSomeTime() {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 20'000; ++i) sink = sink + i;
}

TEST(TraceTest, StageNamesCoverPipeline) {
  EXPECT_EQ(StageName(Stage::kParse), "parse");
  EXPECT_EQ(StageName(Stage::kPlan), "plan");
  EXPECT_EQ(StageName(Stage::kExecute), "execute");
  EXPECT_EQ(StageName(Stage::kRank), "rank");
  EXPECT_EQ(StageName(Stage::kRewrite), "rewrite");
  EXPECT_EQ(StageName(Stage::kSerialize), "serialize");
}

TEST(TraceTest, StageSpanFeedsStageHistogram) {
  metrics::MetricsSnapshot before =
      metrics::Registry::Default().Snapshot();
  {
    QueryTrace query_trace("test");
    StageSpan span(Stage::kRank);
  }
  metrics::MetricsSnapshot after = metrics::Registry::Default().Snapshot();
  EXPECT_EQ(after.HistogramCountTotal("lotusx_stage_latency_usec"),
            before.HistogramCountTotal("lotusx_stage_latency_usec") + 1);
  EXPECT_EQ(after.HistogramCountTotal("lotusx_search_latency_usec"),
            before.HistogramCountTotal("lotusx_search_latency_usec") + 1);
}

TEST(TraceTest, CurrentTracksNesting) {
  EXPECT_EQ(QueryTrace::Current(), nullptr);
  {
    QueryTrace outer("outer");
    EXPECT_EQ(QueryTrace::Current(), &outer);
    {
      QueryTrace inner("inner");
      EXPECT_EQ(QueryTrace::Current(), &inner);
    }
    EXPECT_EQ(QueryTrace::Current(), &outer);
  }
  EXPECT_EQ(QueryTrace::Current(), nullptr);
}

TEST(TraceTest, StageSpanAccumulatesIntoCurrentTrace) {
  QueryTrace query_trace("test");
  {
    StageSpan span(Stage::kExecute);
    BurnSomeTime();
  }
  {
    StageSpan span(Stage::kExecute);
    BurnSomeTime();
  }
  EXPECT_GT(query_trace.stage_millis(Stage::kExecute), 0.0);
  EXPECT_EQ(query_trace.stage_millis(Stage::kParse), 0.0);
}

TEST(TraceTest, SlowQueryThresholdRoundTrips) {
  double previous = SetSlowQueryThresholdMillis(123.5);
  EXPECT_DOUBLE_EQ(SlowQueryThresholdMillis(), 123.5);
  SetSlowQueryThresholdMillis(previous);
}

TEST(TraceTest, SlowQueryLogLineHasStructuredFields) {
  std::string captured;
  LogSink previous_sink =
      SetLogSinkForTest([&](std::string_view line) { captured += line; });
  double previous_threshold = SetSlowQueryThresholdMillis(0);  // log all
  {
    QueryTrace query_trace("engine");
    query_trace.set_query("//article[author]/title");
    query_trace.set_detail("twigstack");
    {
      StageSpan span(Stage::kExecute);
      BurnSomeTime();
    }
  }
  SetSlowQueryThresholdMillis(previous_threshold);
  SetLogSinkForTest(std::move(previous_sink));
  EXPECT_NE(captured.find("slow-query"), std::string::npos) << captured;
  EXPECT_NE(captured.find("source=engine"), std::string::npos) << captured;
  EXPECT_NE(captured.find("total_ms="), std::string::npos) << captured;
  EXPECT_NE(captured.find("algorithm=twigstack"), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("query=\"//article[author]/title\""),
            std::string::npos)
      << captured;
  EXPECT_NE(captured.find("execute:"), std::string::npos) << captured;
}

TEST(TraceTest, NegativeThresholdSilencesSlowQueryLog) {
  std::string captured;
  LogSink previous_sink =
      SetLogSinkForTest([&](std::string_view line) { captured += line; });
  double previous_threshold = SetSlowQueryThresholdMillis(-1);
  {
    QueryTrace query_trace("engine");
    query_trace.set_query("//a");
  }
  SetSlowQueryThresholdMillis(previous_threshold);
  SetLogSinkForTest(std::move(previous_sink));
  EXPECT_EQ(captured.find("slow-query"), std::string::npos) << captured;
}

// In verbose mode (threshold Info) every query below the slow threshold
// still emits a "query ..." trace line; at the default Warning threshold
// fast queries stay silent.
TEST(TraceTest, VerboseModeTracesFastQueriesAtInfo) {
  std::string captured;
  LogSink previous_sink =
      SetLogSinkForTest([&](std::string_view line) { captured += line; });
  double previous_threshold =
      SetSlowQueryThresholdMillis(1e9);  // nothing is "slow"
  {
    QueryTrace query_trace("engine");
    query_trace.set_query("//a");
  }
  EXPECT_EQ(captured.find("query"), std::string::npos) << captured;

  LogSeverity previous_severity = SetMinLogSeverity(LogSeverity::kInfo);
  {
    QueryTrace query_trace("engine");
    query_trace.set_query("//a");
    query_trace.set_detail("twigstack");
  }
  SetMinLogSeverity(previous_severity);
  SetSlowQueryThresholdMillis(previous_threshold);
  SetLogSinkForTest(std::move(previous_sink));
  EXPECT_NE(captured.find("query source=engine"), std::string::npos)
      << captured;
  EXPECT_EQ(captured.find("slow-query"), std::string::npos) << captured;
  EXPECT_NE(captured.find("algorithm=twigstack"), std::string::npos)
      << captured;
}

TEST(TraceTest, DisabledMetricsSkipRecording) {
  bool was_enabled = metrics::SetEnabled(false);
  metrics::MetricsSnapshot before =
      metrics::Registry::Default().Snapshot();
  {
    QueryTrace query_trace("test");
    StageSpan span(Stage::kPlan);
  }
  metrics::MetricsSnapshot after = metrics::Registry::Default().Snapshot();
  metrics::SetEnabled(was_enabled);
  EXPECT_EQ(after.HistogramCountTotal("lotusx_search_latency_usec"),
            before.HistogramCountTotal("lotusx_search_latency_usec"));
  EXPECT_EQ(after.HistogramCountTotal("lotusx_stage_latency_usec"),
            before.HistogramCountTotal("lotusx_stage_latency_usec"));
}

}  // namespace
}  // namespace lotusx::trace
