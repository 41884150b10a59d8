// The introspection layer end to end: the span tree built by nested
// QueryTrace/StageSpan/NamedSpan scopes, trace adoption across thread
// pool boundaries, the one request record and the ring that retains it
// for SLOWLOG and TRACE (wraparound, reset, concurrent writers),
// deterministic sampling, the CLIENTS registry, the process-level
// gauges, and the batch slow-query attribution regression (worker-side
// stage time must land in the submitting request's entry).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/client_registry.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/process_metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "common/trace_store.h"
#include "lotusx/engine.h"

namespace lotusx::trace {
namespace {

/// Spin long enough that a Timer sees a strictly positive elapsed time.
void BurnSomeTime() {
  Timer timer;
  while (timer.ElapsedMicros() < 200.0) {
  }
}

/// Scoped defaults for retention tests: everything is slow, everything
/// is sampled, rings start empty, and log lines go nowhere.
class IntrospectionEnv {
 public:
  IntrospectionEnv()
      : threshold_(SetSlowQueryThresholdMillis(0)),
        sample_rate_(SetTraceSampleRate(1.0)),
        sink_(SetLogSinkForTest([](std::string_view) {})) {
    SlowRing().Reset();
    TraceRing().Reset();
  }
  ~IntrospectionEnv() {
    SetSlowQueryThresholdMillis(threshold_);
    SetTraceSampleRate(sample_rate_);
    SetLogSinkForTest(std::move(sink_));
    SlowRing().Reset();
    TraceRing().Reset();
  }

 private:
  double threshold_;
  double sample_rate_;
  LogSink sink_;
};

// ------------------------------------------------------------- span tree

TEST(TraceTreeTest, NestedScopesBuildSpansOnTheRoot) {
  IntrospectionEnv env;
  uint64_t trace_id = 0;
  {
    QueryTrace root("net");
    trace_id = root.trace_id();
    ASSERT_NE(trace_id, 0u);
    EXPECT_TRUE(root.sampled());  // rate 1.0
    {
      QueryTrace session("session");
      EXPECT_EQ(session.trace_id(), trace_id);  // inherited, not minted
      EXPECT_EQ(session.root(), &root);
      StageSpan span(Stage::kParse);
      BurnSomeTime();
    }
    NamedSpan named("chunk");
    BurnSomeTime();
  }
  std::shared_ptr<const RequestRecord> retained = TraceRing().Find(trace_id);
  ASSERT_NE(retained, nullptr);
  std::vector<std::string> names;
  names.reserve(retained->spans.size());
  for (const TraceSpan& span : retained->spans) names.push_back(span.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "session"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "parse"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "chunk"), names.end());
  // Timestamps are offsets into the root, so they fit inside its total.
  for (const TraceSpan& span : retained->spans) {
    EXPECT_GE(span.start_us, 0.0) << span.name;
    EXPECT_LE(span.start_us + span.duration_us,
              retained->total_ms * 1000.0 * 1.5)
        << span.name;
  }
}

TEST(TraceTreeTest, UnsampledRequestsKeepStageTotalsButNoSpans) {
  IntrospectionEnv env;
  SetTraceSampleRate(0.0);
  uint64_t trace_id = 0;
  {
    QueryTrace root("net");
    trace_id = root.trace_id();
    EXPECT_FALSE(root.sampled());
    StageSpan span(Stage::kExecute);
    BurnSomeTime();
  }
  // Slow (threshold 0) => the SLOWLOG entry still has the breakdown...
  RequestRecords entries = SlowRing().Last(1);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_GT(entries[0]->stage_ms[static_cast<int>(Stage::kExecute)], 0.0);
  // ...and the trace is retained (slow queries bypass sampling) with an
  // empty span tree.
  std::shared_ptr<const RequestRecord> retained = TraceRing().Find(trace_id);
  ASSERT_NE(retained, nullptr);
  EXPECT_TRUE(retained->spans.empty());
}

TEST(TraceTreeTest, AdoptionAccountsWorkerTimeIntoTheRoot) {
  IntrospectionEnv env;
  QueryTrace root("net");
  std::thread worker([&root] {
    EXPECT_EQ(QueryTrace::Current(), nullptr);
    QueryTrace::Adoption adopt(&root);
    EXPECT_EQ(QueryTrace::Current(), &root);
    StageSpan span(Stage::kRank);
    BurnSomeTime();
  });
  worker.join();
  EXPECT_GT(root.stage_millis(Stage::kRank), 0.0);
}

TEST(TraceTreeTest, NullAdoptionIsANoOp) {
  QueryTrace::Adoption adopt(nullptr);
  EXPECT_EQ(QueryTrace::Current(), nullptr);
}

TEST(TraceTreeTest, SamplingIsDeterministicInTheTraceId) {
  IntrospectionEnv env;
  SetTraceSampleRate(0.5);
  for (uint64_t id = 1; id <= 64; ++id) {
    QueryTrace first("a", id);
    bool verdict;
    {
      QueryTrace nested("b");  // same request, inherits the verdict
      verdict = nested.sampled();
    }
    QueryTrace second("c", id);
    EXPECT_EQ(first.sampled(), verdict) << id;
    EXPECT_EQ(first.sampled(), second.sampled()) << id;
  }
}

TEST(TraceTreeTest, MintedIdsAreUniqueAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &minted] {
      minted[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) minted[t].push_back(MintTraceId());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<uint64_t> all;
  for (const std::vector<uint64_t>& ids : minted) {
    for (uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(all.insert(id).second) << "duplicate trace id " << id;
    }
  }
}

// -------------------------------------------------------- retention rings

TEST(RequestRingTest, KeepsTheNewestEntriesOnWraparound) {
  RequestRing ring(4, /*numbered=*/true);
  for (int i = 1; i <= 10; ++i) {
    auto entry = std::make_shared<RequestRecord>();
    entry->query = "q" + std::to_string(i);
    ring.Add(entry);
  }
  EXPECT_EQ(ring.Len(), 4u);
  EXPECT_EQ(ring.TotalAdded(), 10u);
  RequestRecords last = ring.Last(100);
  ASSERT_EQ(last.size(), 4u);
  // Newest first, ids assigned monotonically by the ring.
  EXPECT_EQ(last[0]->query, "q10");
  EXPECT_EQ(last[3]->query, "q7");
  for (size_t i = 1; i < last.size(); ++i) {
    EXPECT_LT(last[i]->id, last[i - 1]->id);
  }
}

TEST(RequestRingTest, ResetClearsEntriesButNotTheTotal) {
  RequestRing ring(4, /*numbered=*/true);
  ring.Add(std::make_shared<RequestRecord>());
  ring.Add(std::make_shared<RequestRecord>());
  ring.Reset();
  EXPECT_EQ(ring.Len(), 0u);
  EXPECT_EQ(ring.TotalAdded(), 2u);
  ring.Add(std::make_shared<RequestRecord>());
  // Ids keep rising across resets so entries stay distinguishable.
  EXPECT_EQ(ring.Last(1)[0]->id, 3u);
}

TEST(RequestRingTest, ConcurrentAddAndResetStaySane) {
  RequestRing ring(16, /*numbered=*/true);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread resetter([&ring, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      ring.Reset();
      ring.Len();
      ring.Last(8);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring] {
      for (int i = 0; i < kPerWriter; ++i) {
        auto entry = std::make_shared<RequestRecord>();
        entry->total_ms = i;
        ring.Add(entry);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop = true;
  resetter.join();
  EXPECT_EQ(ring.TotalAdded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_LE(ring.Len(), 16u);
}

TEST(RequestRingTest, KeepsTheNewestTracesAndFindsById) {
  RequestRing ring(4, /*numbered=*/false);
  for (uint64_t id = 1; id <= 10; ++id) {
    auto trace = std::make_shared<RequestRecord>();
    trace->trace_id = id;
    ring.Add(trace);
  }
  EXPECT_EQ(ring.Len(), 4u);
  EXPECT_EQ(ring.Find(1), nullptr);  // evicted
  ASSERT_NE(ring.Find(9), nullptr);
  EXPECT_EQ(ring.Find(9)->trace_id, 9u);
  EXPECT_EQ(ring.Find(9)->id, 0u);  // an unnumbered ring stamps no id
  RequestRecords last = ring.Last(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0]->trace_id, 10u);
  EXPECT_EQ(last[1]->trace_id, 9u);
  ring.Reset();
  EXPECT_EQ(ring.Len(), 0u);
}

TEST(RequestRingTest, RenderersProduceStableMachineReadableForms) {
  auto entry = std::make_shared<RequestRecord>();
  entry->id = 7;
  entry->trace_id = 0x1234;
  entry->fingerprint = 0xabcd;
  entry->component = "engine";
  entry->query = "//article[author]/\"title\"";
  entry->detail = "twigstack";
  entry->total_ms = 12.5;
  entry->stage_ms[static_cast<int>(Stage::kExecute)] = 9.25;
  std::string json = RenderSlowLogJson({entry});
  EXPECT_NE(json.find("\"trace_id\":\"0x0000000000001234\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"execute\""), std::string::npos) << json;
  // The query's inner quotes must be escaped, not emitted raw.
  EXPECT_NE(json.find("\\\"title\\\""), std::string::npos) << json;

  auto trace = std::make_shared<RequestRecord>();
  trace->trace_id = 0x1234;
  trace->component = "net";
  trace->total_ms = 3.0;
  TraceSpan span;
  span.name = "execute";
  span.start_us = 10;
  span.duration_us = 500;
  span.thread = 2;
  trace->spans.push_back(span);
  std::string chrome = ChromeTraceJson({trace});
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"name\":\"execute\""), std::string::npos) << chrome;

  // SLOWLOG GET is the shared key=value line, one per record, in the
  // documented key order.
  std::string text = RenderSlowLogText({entry});
  EXPECT_EQ(text, RenderRecordText(*entry));
  EXPECT_EQ(text.rfind("id=7 source=engine trace=0x0000000000001234 "
                       "fingerprint=0x000000000000abcd time=",
                       0),
            0u)
      << text;
  EXPECT_NE(text.find(" total_ms=12.500 algorithm=twigstack "
                      "query=\"//article[author]/\\\"title\\\"\" "
                      "stages=execute:9.250"),
            std::string::npos)
      << text;
  EXPECT_EQ(RenderSlowLogText({}), "(empty)");
  // A record that is not slow and ran no search names neither an id, a
  // fingerprint nor an algorithm; no stage ran either.
  std::string bare = RenderRecordText(RequestRecord{});
  EXPECT_EQ(bare.find("id="), std::string::npos) << bare;
  EXPECT_EQ(bare.find("fingerprint="), std::string::npos) << bare;
  EXPECT_EQ(bare.find("algorithm="), std::string::npos) << bare;
  EXPECT_NE(bare.find("stages=(none)"), std::string::npos) << bare;

  // TRACE LAST heads each span tree with the same line.
  std::string tree = RenderTraceText({trace});
  EXPECT_EQ(tree.rfind(RenderRecordText(*trace) + " slow=no spans=1", 0), 0u)
      << tree;
  EXPECT_NE(tree.find("[t2] execute"), std::string::npos) << tree;
}

// One request, one record: the root builds it once, both rings hold the
// same record, a nested trace logs no line of its own, and the detail a
// nested layer stamps lands on the root.
TEST(RequestRingTest, RootBuildsOneRecordForBothRingsAndTheLogLine) {
  IntrospectionEnv env;
  std::string captured;
  LogSink sink = SetLogSinkForTest([&captured](std::string_view line) {
    captured += std::string(line) + "\n";
  });
  uint64_t trace_id = 0;
  {
    QueryTrace root("net");
    root.set_query_view("RUN");
    trace_id = root.trace_id();
    QueryTrace session("session");
    session.set_fingerprint(0x5eed);
    session.set_detail("twigstack");
    StageSpan span(Stage::kExecute);
    BurnSomeTime();
  }
  SetLogSinkForTest(std::move(sink));

  RequestRecords slow = SlowRing().Last(10);
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0], TraceRing().Find(trace_id));  // stored once
  EXPECT_EQ(slow[0]->component, "net");
  EXPECT_EQ(slow[0]->query, "RUN");
  EXPECT_EQ(slow[0]->detail, "twigstack");
  EXPECT_EQ(slow[0]->fingerprint, 0x5eedu);
  EXPECT_NE(slow[0]->id, 0u);

  size_t lines = 0;
  for (size_t at = captured.find("slow-query"); at != std::string::npos;
       at = captured.find("slow-query", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 1u) << captured;
  EXPECT_NE(captured.find("slow-query " + RenderRecordText(*slow[0])),
            std::string::npos)
      << captured;
}

// --------------------------------------------------------- batch fan-out

// Regression: a batch submitted under one request trace must attribute
// the chunks' stage time (executed on pool workers) to the submitting
// request's SLOWLOG entry, not lose it — and with sampling on, the
// chunk spans must appear in the retained trace.
TEST(IntrospectionTest, SearchBatchSlowEntryCarriesWorkerStageTimes) {
  IntrospectionEnv env;
  StatusOr<Engine> engine = Engine::FromXmlText(R"(<dblp>
    <article><author>jiaheng lu</author><title>twig joins</title></article>
    <article><author>chunbin lin</author><title>lotusx</title></article>
    <article><author>wei wang</author><title>indexing xml</title></article>
    <article><author>mary smith</author><title>query models</title></article>
  </dblp>)");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ThreadPool pool(2);
  const std::vector<std::string> queries = {
      "//article[author]", "//article[title]", "//article/author",
      "//article/title"};
  uint64_t trace_id = 0;
  {
    QueryTrace root("batch");
    root.set_query("SearchBatch x" + std::to_string(queries.size()));
    trace_id = root.trace_id();
    std::vector<StatusOr<SearchResult>> results =
        engine->SearchBatch(queries, {}, &pool);
    ASSERT_EQ(results.size(), queries.size());
    for (const StatusOr<SearchResult>& result : results) {
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  const RequestRecords entries = SlowRing().Last(100);
  const RequestRecord* batch_entry = nullptr;
  for (const std::shared_ptr<const RequestRecord>& entry : entries) {
    if (entry->trace_id == trace_id) batch_entry = entry.get();
  }
  ASSERT_NE(batch_entry, nullptr) << "batch root missing from SLOWLOG";
  EXPECT_EQ(batch_entry->component, "batch");
  EXPECT_EQ(batch_entry->query, "SearchBatch x4");
  // The execute stage runs inside the chunks, on pool workers; its time
  // must surface in the submitting request's breakdown.
  EXPECT_GT(batch_entry->stage_ms[static_cast<int>(Stage::kExecute)], 0.0);

  std::shared_ptr<const RequestRecord> retained = TraceRing().Find(trace_id);
  ASSERT_NE(retained, nullptr);
  bool has_chunk_span = false;
  for (const TraceSpan& span : retained->spans) {
    if (span.name == "chunk") has_chunk_span = true;
  }
  EXPECT_TRUE(has_chunk_span) << "chunk spans missing from retained trace";
}

// ------------------------------------------------------- client registry

TEST(ClientRegistryTest, RegisterSnapshotUnregisterRoundTrip) {
  ClientRegistry& registry = ClientRegistry::Default();
  const size_t before = registry.size();
  std::shared_ptr<ClientRegistry::Handle> handle =
      registry.Register(42, "127.0.0.1:5000");
  EXPECT_EQ(registry.size(), before + 1);
  handle->RecordBytesIn(100);
  handle->RecordBytesOut(40);
  handle->SetPipelined(3);
  handle->SetInFlight(true);
  handle->SetLastVerb("QUERY");

  std::vector<ClientInfo> snapshot = registry.Snapshot();
  const ClientInfo* info = nullptr;
  for (const ClientInfo& client : snapshot) {
    if (client.fd == 42) info = &client;
  }
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->peer, "127.0.0.1:5000");
  EXPECT_EQ(info->bytes_in, 100u);
  EXPECT_EQ(info->bytes_out, 40u);
  EXPECT_EQ(info->pipelined, 3u);
  EXPECT_TRUE(info->in_flight);
  EXPECT_EQ(info->last_verb, "QUERY");
  EXPECT_GE(info->age_seconds, 0.0);

  std::string rendered = RenderClientsText(snapshot);
  EXPECT_NE(rendered.find("fd=42"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("peer=127.0.0.1:5000"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("last_verb=QUERY"), std::string::npos) << rendered;

  registry.Unregister(handle);
  EXPECT_EQ(registry.size(), before);
  registry.Unregister(handle);  // idempotent
  EXPECT_EQ(registry.size(), before);
  registry.Unregister(nullptr);  // null-safe
}

TEST(ClientRegistryTest, ConcurrentUpdatesWhileSnapshotting) {
  ClientRegistry& registry = ClientRegistry::Default();
  std::shared_ptr<ClientRegistry::Handle> handle =
      registry.Register(43, "127.0.0.1:5001");
  std::atomic<bool> stop{false};
  std::thread updater([&handle, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      handle->RecordBytesIn(1);
      handle->SetPipelined(2);
      handle->SetLastVerb("ADD");
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::vector<ClientInfo> snapshot = registry.Snapshot();
    RenderClientsText(snapshot);
  }
  stop = true;
  updater.join();
  registry.Unregister(handle);
}

// -------------------------------------------------------- process gauges

TEST(IntrospectionTest, ProcessMetricsLandInTheRegistry) {
  metrics::UpdateProcessMetrics();
  const std::string text = metrics::Registry::Default().RenderText();
  EXPECT_NE(text.find("lotusx_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("lotusx_process_rss_bytes"), std::string::npos);
  EXPECT_NE(text.find("lotusx_process_open_fds"), std::string::npos);
  EXPECT_NE(text.find("lotusx_build_info{"), std::string::npos);
  EXPECT_NE(text.find("git_sha="), std::string::npos);
  EXPECT_FALSE(metrics::BuildVersion().empty());
  EXPECT_FALSE(metrics::BuildGitSha().empty());
}

TEST(IntrospectionTest, TraceIdFormatRoundTrips) {
  EXPECT_EQ(FormatTraceId(0x1234), "0x0000000000001234");
  EXPECT_EQ(ParseTraceId("0x0000000000001234"), 0x1234u);
  EXPECT_EQ(ParseTraceId("0000000000001234"), 0x1234u);
  EXPECT_EQ(ParseTraceId("not-an-id"), 0u);
  EXPECT_EQ(ParseTraceId(""), 0u);
}

}  // namespace
}  // namespace lotusx::trace
