#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/coding.h"
#include "common/metrics.h"
#include "common/statement_store.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "datagen/datagen.h"
#include "lotusx/engine.h"
#include "session/canvas.h"
#include "session/canvas_io.h"
#include "session/protocol.h"
#include "session/session.h"
#include "tests/test_util.h"
#include "twig/fingerprint.h"
#include "twig/query_parser.h"
#include "xml/writer.h"

namespace lotusx::session {
namespace {

using lotusx::testing::MustIndex;

constexpr std::string_view kXml = R"(<dblp>
  <article>
    <author>jiaheng lu</author>
    <title>twig joins</title>
    <year>2005</year>
  </article>
  <article>
    <author>chunbin lin</author>
    <title>lotusx search</title>
    <year>2012</year>
  </article>
  <book>
    <author>tok wang ling</author>
    <title>xml databases</title>
  </book>
</dblp>)";

// ---------------------------------------------------------------- Canvas

TEST(CanvasTest, BuildAndCompileSimpleQuery) {
  Canvas canvas;
  CanvasNodeId article = canvas.AddNode(0, 0, "article");
  CanvasNodeId title = canvas.AddNode(0, 100, "title");
  ASSERT_TRUE(canvas.Connect(article, title, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.SetOutput(title).ok());
  std::map<CanvasNodeId, twig::QueryNodeId> mapping;
  auto query = canvas.Compile(&mapping);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->ToString(), "//article/title!");
  EXPECT_EQ(mapping.at(article), 0);
  EXPECT_EQ(mapping.at(title), 1);
}

TEST(CanvasTest, ChildOrderFollowsXCoordinate) {
  Canvas canvas;
  CanvasNodeId root = canvas.AddNode(50, 0, "article");
  CanvasNodeId right = canvas.AddNode(90, 100, "title");
  CanvasNodeId left = canvas.AddNode(10, 100, "author");
  ASSERT_TRUE(canvas.Connect(root, right, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.Connect(root, left, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.SetOrdered(root, true).ok());
  auto query = canvas.Compile();
  ASSERT_TRUE(query.ok());
  // author (x=10) is the first child despite being connected second.
  EXPECT_EQ(query->node(query->node(0).children[0]).tag, "author");
  // Moving title to the far left flips the order.
  ASSERT_TRUE(canvas.MoveNode(right, 0, 100).ok());
  query = canvas.Compile();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->node(query->node(0).children[0]).tag, "title");
}

TEST(CanvasTest, RejectsForests) {
  Canvas canvas;
  canvas.AddNode(0, 0, "a");
  canvas.AddNode(10, 0, "b");
  auto query = canvas.Compile();
  EXPECT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CanvasTest, RejectsUntaggedBoxes) {
  Canvas canvas;
  CanvasNodeId a = canvas.AddNode(0, 0, "a");
  CanvasNodeId b = canvas.AddNode(0, 10);
  ASSERT_TRUE(canvas.Connect(a, b, twig::Axis::kChild).ok());
  EXPECT_FALSE(canvas.Compile().ok());
}

TEST(CanvasTest, RejectsCyclesSelfLoopsAndSecondParents) {
  Canvas canvas;
  CanvasNodeId a = canvas.AddNode(0, 0, "a");
  CanvasNodeId b = canvas.AddNode(0, 10, "b");
  CanvasNodeId c = canvas.AddNode(0, 20, "c");
  EXPECT_FALSE(canvas.Connect(a, a, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.Connect(a, b, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.Connect(b, c, twig::Axis::kChild).ok());
  EXPECT_TRUE(canvas.Connect(c, a, twig::Axis::kChild).IsInvalidArgument() ||
              canvas.Connect(c, a, twig::Axis::kChild).code() ==
                  StatusCode::kAlreadyExists);
  EXPECT_EQ(canvas.Connect(a, c, twig::Axis::kChild).code(),
            StatusCode::kAlreadyExists);
}

TEST(CanvasTest, RemoveNodeDropsEdges) {
  Canvas canvas;
  CanvasNodeId a = canvas.AddNode(0, 0, "a");
  CanvasNodeId b = canvas.AddNode(0, 10, "b");
  ASSERT_TRUE(canvas.Connect(a, b, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.RemoveNode(b).ok());
  EXPECT_TRUE(canvas.edges().empty());
  auto query = canvas.Compile();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->size(), 1);
}

TEST(CanvasTest, PredicatesOrderedAndOutputCompile) {
  Canvas canvas;
  CanvasNodeId article = canvas.AddNode(0, 0, "article");
  CanvasNodeId year = canvas.AddNode(0, 10, "year");
  ASSERT_TRUE(canvas.Connect(article, year, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas
                  .SetPredicate(year, twig::ValuePredicate{
                                          twig::ValuePredicate::Op::kEquals,
                                          "2012"})
                  .ok());
  ASSERT_TRUE(canvas.SetOutput(article).ok());
  auto query = canvas.Compile();
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->node(1).predicate.text, "2012");
  EXPECT_EQ(query->output(), 0);
}

// --------------------------------------------------------------- Session

TEST(SessionTest, SuggestTagsOnEmptyCanvas) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  auto candidates = session.SuggestTags(0, twig::Axis::kDescendant, "a");
  ASSERT_TRUE(candidates.ok());
  ASSERT_FALSE(candidates->empty());
  EXPECT_EQ((*candidates)[0].text, "author");  // 3 authors > 2 articles
}

TEST(SessionTest, SuggestTagsIsPositionAware) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  CanvasNodeId book = session.canvas().AddNode(0, 0, "book");
  auto candidates = session.SuggestTags(book, twig::Axis::kChild, "");
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts;
  for (const auto& candidate : *candidates) texts.push_back(candidate.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "title"), texts.end());
  // year never occurs under book.
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "year"), texts.end());
}

TEST(SessionTest, SuggestValuesForBox) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  CanvasNodeId author = session.canvas().AddNode(0, 0, "author");
  auto candidates = session.SuggestValues(author, "l");
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts;
  for (const auto& candidate : *candidates) texts.push_back(candidate.text);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "lu"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "lin"), texts.end());
  // "lotusx" occurs only in titles.
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "lotusx"), texts.end());
}

TEST(SessionTest, RunExecutesAndRanks) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  Canvas& canvas = session.canvas();
  CanvasNodeId article = canvas.AddNode(0, 0, "article");
  CanvasNodeId title = canvas.AddNode(0, 10, "title");
  ASSERT_TRUE(canvas.Connect(article, title, twig::Axis::kChild).ok());
  ASSERT_TRUE(canvas.SetOutput(title).ok());
  auto response = session.Run();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 2u);
  EXPECT_TRUE(response->rewrites_applied.empty());
}

TEST(SessionTest, RunFallsBackToRewriting) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  Canvas& canvas = session.canvas();
  CanvasNodeId article = canvas.AddNode(0, 0, "article");
  CanvasNodeId title = canvas.AddNode(0, 10, "titel");  // typo
  ASSERT_TRUE(canvas.Connect(article, title, twig::Axis::kChild).ok());
  auto response = session.Run();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->rewrites_applied.empty());
  EXPECT_EQ(response->results.size(), 2u);
}

TEST(SessionTest, UndoRestoresCanvas) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  session.canvas().AddNode(0, 0, "article");
  session.Checkpoint();
  session.canvas().AddNode(0, 10, "junk");
  EXPECT_EQ(session.canvas().nodes().size(), 2u);
  ASSERT_TRUE(session.Undo().ok());
  EXPECT_EQ(session.canvas().nodes().size(), 1u);
  EXPECT_TRUE(session.Undo().IsInvalidArgument() ||
              session.Undo().code() == StatusCode::kFailedPrecondition);
}

TEST(SessionTest, UndoStackKeepsTheNewestCheckpoints) {
  auto indexed = MustIndex(kXml);
  Session session(indexed);
  // Checkpoint k snapshots a canvas of k boxes.
  const size_t checkpoints = Session::kMaxUndoDepth + 10;
  for (size_t k = 0; k < checkpoints; ++k) {
    session.Checkpoint();
    session.canvas().AddNode(0, static_cast<double>(k), "article");
  }
  EXPECT_EQ(session.undo_depth(), Session::kMaxUndoDepth);
  for (size_t k = checkpoints; k-- > checkpoints - Session::kMaxUndoDepth;) {
    ASSERT_TRUE(session.Undo().ok()) << "undo to checkpoint " << k;
    EXPECT_EQ(session.canvas().nodes().size(), k);
  }
  EXPECT_EQ(session.undo_depth(), 0u);
  EXPECT_EQ(session.Undo().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.canvas().nodes().size(), 10u);
}

// -------------------------------------------------------------- Protocol

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest() : indexed_(MustIndex(kXml)), session_(indexed_),
                   interpreter_(&session_) {}

  std::string Must(std::string_view line) {
    auto result = interpreter_.Execute(line);
    EXPECT_TRUE(result.ok()) << line << " -> " << result.status().ToString();
    return result.ok() ? *result : "";
  }

  index::IndexedDocument indexed_;
  Session session_;
  ProtocolInterpreter interpreter_;
};

TEST_F(ProtocolTest, FullInteractionFlow) {
  EXPECT_EQ(Must("ADD 0 0 article"), "node 1");
  EXPECT_EQ(Must("ADD 0 100 title"), "node 2");
  EXPECT_EQ(Must("EDGE 1 2 /"), "ok");
  EXPECT_EQ(Must("OUTPUT 2"), "ok");
  EXPECT_EQ(Must("QUERY"), "//article/title!");
  std::string run = Must("RUN");
  EXPECT_NE(run.find("matches: 2"), std::string::npos) << run;
}

TEST_F(ProtocolTest, TypeSuggestsCandidates) {
  Must("ADD 0 0 article");
  std::string suggestions = Must("TYPE 1 / t");
  EXPECT_NE(suggestions.find("title"), std::string::npos);
  EXPECT_EQ(suggestions.find("author"), std::string::npos);
}

TEST_F(ProtocolTest, AcceptCreatesAndConnectsSuggestedBox) {
  Must("ADD 50 0 article");
  std::string suggestions = Must("TYPE 1 / t");
  ASSERT_NE(suggestions.find("title"), std::string::npos);
  std::string accepted = Must("ACCEPT 1");
  EXPECT_NE(accepted.find("(title)"), std::string::npos) << accepted;
  EXPECT_EQ(Must("QUERY"), "//article!/title");
  // The new box was auto-placed below the anchor.
  const CanvasNode* box = session_.canvas().FindNode(2);
  ASSERT_NE(box, nullptr);
  EXPECT_GT(box->y, 0);
  // One acceptance per TYPE; a second ACCEPT needs a new TYPE.
  EXPECT_EQ(interpreter_.Execute("ACCEPT 1").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ProtocolTest, AcceptValidatesArguments) {
  EXPECT_EQ(interpreter_.Execute("ACCEPT 1").status().code(),
            StatusCode::kFailedPrecondition);  // nothing typed yet
  Must("ADD 0 0 article");
  Must("TYPE 1 / t");
  EXPECT_EQ(interpreter_.Execute("ACCEPT 99").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(interpreter_.Execute("ACCEPT x").ok());
  EXPECT_FALSE(interpreter_.Execute("ACCEPT 1 5").ok());  // x without y
  // Explicit placement works.
  std::string accepted = Must("ACCEPT 1 40 260");
  EXPECT_NE(accepted.find("node"), std::string::npos);
  const CanvasNode* box = session_.canvas().FindNode(2);
  ASSERT_NE(box, nullptr);
  EXPECT_DOUBLE_EQ(box->x, 40);
  EXPECT_DOUBLE_EQ(box->y, 260);
}

TEST_F(ProtocolTest, AcceptAtRootCreatesUnconnectedRootBox) {
  std::string suggestions = Must("TYPE 0 // a");
  ASSERT_FALSE(suggestions.empty());
  std::string accepted = Must("ACCEPT 1");
  EXPECT_NE(accepted.find("node 1"), std::string::npos);
  EXPECT_TRUE(session_.canvas().edges().empty());
}

TEST_F(ProtocolTest, TypeValSuggestsTerms) {
  Must("ADD 0 0 author");
  std::string suggestions = Must("TYPEVAL 1 l");
  EXPECT_NE(suggestions.find("lu"), std::string::npos);
}

TEST_F(ProtocolTest, ValuePredicateCommands) {
  Must("ADD 0 0 year");
  EXPECT_EQ(Must("VALUE 1 = 2012"), "ok");
  EXPECT_EQ(Must("QUERY"), R"(//year![="2012"])");
  EXPECT_EQ(Must("VALUE 1 ~ 2012"), "ok");
  EXPECT_EQ(Must("VALUE 1 NONE"), "ok");
  EXPECT_EQ(Must("QUERY"), "//year!");
}

TEST_F(ProtocolTest, OrderedAndShow) {
  Must("ADD 0 0 article");
  Must("ADD 10 50 author");
  Must("ADD 90 50 title");
  Must("EDGE 1 2 /");
  Must("EDGE 1 3 /");
  EXPECT_EQ(Must("ORDERED 1 ON"), "ok");
  std::string show = Must("SHOW");
  EXPECT_NE(show.find("[ordered]"), std::string::npos);
  EXPECT_NE(Must("QUERY").find("[ordered]"), std::string::npos);
}

TEST_F(ProtocolTest, CheckpointUndoReset) {
  Must("ADD 0 0 article");
  Must("CHECKPOINT");
  Must("ADD 0 10 junk");
  EXPECT_EQ(Must("UNDO"), "ok");
  EXPECT_EQ(session_.canvas().nodes().size(), 1u);
  EXPECT_EQ(Must("RESET"), "ok");
  EXPECT_TRUE(session_.canvas().empty());
}

TEST_F(ProtocolTest, ErrorsForBadCommands) {
  EXPECT_FALSE(interpreter_.Execute("FLY 1 2").ok());
  EXPECT_FALSE(interpreter_.Execute("ADD").ok());
  EXPECT_FALSE(interpreter_.Execute("EDGE 1 2 |").ok());
  EXPECT_FALSE(interpreter_.Execute("TAG 99 x").ok());
  EXPECT_FALSE(interpreter_.Execute("ADD x y").ok());
  EXPECT_TRUE(interpreter_.Execute("").ok());  // blank line is a no-op
}

TEST_F(ProtocolTest, RunReportsRewrites) {
  Must("ADD 0 0 article");
  Must("ADD 0 10 titel");
  Must("EDGE 1 2 /");
  std::string run = Must("RUN");
  EXPECT_NE(run.find("rewritten"), std::string::npos) << run;
}

TEST_F(ProtocolTest, ExplainAndExports) {
  Must("ADD 0 0 article");
  Must("ADD 0 10 title");
  Must("EDGE 1 2 /");
  std::string explain = Must("EXPLAIN");
  EXPECT_NE(explain.find("estimated matches"), std::string::npos) << explain;
  // Without an output mark the root is selected and title is a predicate.
  EXPECT_EQ(Must("XPATH"), "//article[title]");
  Must("OUTPUT 2");
  EXPECT_EQ(Must("XPATH"), "//article/title");
  std::string xq = Must("XQUERY");
  EXPECT_NE(xq.find("for $n0 in //article"), std::string::npos) << xq;
}

TEST_F(ProtocolTest, SvgCommandRendersAndWrites) {
  Must("ADD 0 0 article");
  std::string svg = Must("SVG");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  std::string path = ::testing::TempDir() + "/lotusx_protocol.svg";
  std::string response = Must("SVG " + path);
  EXPECT_NE(response.find("wrote"), std::string::npos);
  std::string contents;
  EXPECT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_NE(contents.find("<svg"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ProtocolTest, HelpListsCommands) {
  std::string help = Must("HELP");
  EXPECT_NE(help.find("TYPEVAL"), std::string::npos);
  EXPECT_NE(help.find("RUN"), std::string::npos);
  EXPECT_NE(help.find("STATS [DOC]"), std::string::npos);
}

// ----------------------------------------------------------- STATS verb

// The acceptance pin of the observability layer: after a scripted
// Search/CompleteTag workload, the STATS exposition must carry a nonzero
// search-latency histogram, cache hit and miss counters, the thread-pool
// queue-depth gauge, and per-operator-kind execution counters.
TEST(StatsVerbTest, ExpositionCoversPipelineAfterWorkload) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  engine->EnableResultCache(16);

  // One miss, one hit.
  ASSERT_TRUE(engine->Search("//article[author]/title").ok());
  ASSERT_TRUE(engine->Search("//article[author]/title").ok());
  EXPECT_EQ(engine->cache_hits(), 1u);
  EXPECT_EQ(engine->cache_misses(), 1u);

  // One completion request.
  autocomplete::TagRequest request;
  request.anchor = 0;
  request.axis = twig::Axis::kChild;
  ASSERT_TRUE(
      engine->CompleteTag(twig::ParseQuery("//article").value(), request)
          .ok());

  // Park a one-thread pool and queue extra tasks so the queue-depth
  // gauge is provably nonzero at snapshot time.
  ThreadPool pool(1);
  Mutex mu;
  CondVar cv;
  bool release = false;
  std::atomic<bool> started{false};
  ASSERT_TRUE(pool.Submit([&] {
    started = true;
    MutexLock lock(mu);
    while (!release) cv.Wait(mu);
  }));
  while (!started) std::this_thread::yield();
  ASSERT_TRUE(pool.Submit([] {}));
  ASSERT_TRUE(pool.Submit([] {}));

  // Numeric pins through the embedder API...
  metrics::MetricsSnapshot snapshot = engine->MetricsSnapshot();
  EXPECT_GT(snapshot.HistogramCountTotal("lotusx_search_latency_usec"), 0u);
  EXPECT_GT(snapshot.CounterTotal("lotusx_cache_hits_total"), 0u);
  EXPECT_GT(snapshot.CounterTotal("lotusx_cache_misses_total"), 0u);
  EXPECT_EQ(snapshot.GaugeValueOr("lotusx_threadpool_queue_depth", -1), 2);
  EXPECT_GT(snapshot.CounterTotal("lotusx_plan_operator_execs_total"), 0u);
  EXPECT_GT(snapshot.CounterTotal("lotusx_complete_total"), 0u);
  EXPECT_GT(snapshot.CounterTotal("lotusx_search_total"), 0u);

  // ...and the same families over the session protocol.
  Session session = engine->NewSession();
  ProtocolInterpreter interpreter(&session);
  auto stats = interpreter.Execute("STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const char* family :
       {"lotusx_search_latency_usec_count", "lotusx_cache_hits_total",
        "lotusx_cache_misses_total", "lotusx_threadpool_queue_depth",
        "lotusx_plan_operator_execs_total", "lotusx_complete_total",
        "lotusx_stage_latency_usec_count"}) {
    EXPECT_NE(stats->find(family), std::string::npos)
        << "missing " << family << " in:\n"
        << *stats;
  }

  {
    MutexLock lock(mu);
    release = true;
  }
  cv.SignalAll();
  pool.Shutdown();

  // STATS DOC still renders document statistics; other arguments fail.
  auto doc_stats = interpreter.Execute("STATS DOC");
  ASSERT_TRUE(doc_stats.ok());
  EXPECT_NE(doc_stats->find("distinct paths"), std::string::npos);
  EXPECT_FALSE(interpreter.Execute("STATS nonsense").ok());
}

// ------------------------------------------------------- Search pipeline

// A canvas RUN and Engine::Search run one pipeline: on the same query
// with the session's default options they agree on every field of the
// result, and a RUN counts and records like a library search.
class SearchPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::DblpOptions options;
    options.num_publications = 300;
    auto engine = Engine::FromXmlText(xml::WriteXml(datagen::GenerateDblp(options)));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::make_unique<Engine>(*std::move(engine));
    stmt::StatementStore::Default().Reset();
  }

  static uint64_t Counter(const char* name) {
    return metrics::Registry::Default().Snapshot().CounterTotal(name);
  }

  // Executions the statement store recorded, over every shape.
  static uint64_t StatementCalls() {
    stmt::StatementStore& store = stmt::StatementStore::Default();
    uint64_t calls = 0;
    for (const stmt::StatementSnapshot& row : store.Top(store.capacity())) {
      calls += row.calls;
    }
    return calls;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(SearchPipelineTest, RunMatchesEngineSearch) {
  enum class Kind { kBroad, kRewritten, kRewriteFails, kSchemaEmpty };
  const std::vector<std::pair<std::string, Kind>> cases = {
      {"//article[author]/title", Kind::kBroad},
      {"//dblp//author", Kind::kBroad},
      {"//inproceedings[booktitle][year]/title", Kind::kBroad},
      {"//article[jornal]/author", Kind::kRewritten},  // misspelled branch
      {"//dblp/title", Kind::kRewritten},              // wrong axis
      {"//qqqqqqqqqqqq[zzzzzzzzzzzz][yyyyyyyyyyyy]/xxxxxxxxxxxx",
       Kind::kRewriteFails},
      {"//book[booktitle]/title", Kind::kSchemaEmpty},
  };
  Session session = engine_->NewSession();
  SearchOptions options;
  options.ranking.top_k = 20;
  ASSERT_EQ(SearchCacheKey(twig::TwigQuery(), options),
            SearchCacheKey(twig::TwigQuery(),
                           SearchOptions{
                               .eval = {},
                               .ranking = session.options().ranking,
                               .rewrite_on_empty = session.options().rewrite_on_empty,
                               .rewrite = session.options().rewrite}));

  for (const auto& [text, kind] : cases) {
    SCOPED_TRACE(text);
    auto query = twig::ParseQuery(text);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    session.canvas() = CanvasFromQuery(*query);

    const uint64_t searches = Counter("lotusx_search_total");
    const uint64_t calls = StatementCalls();
    auto run = session.Run();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(Counter("lotusx_search_total"), searches + 1);
    EXPECT_EQ(StatementCalls(), calls + 1);
    // The row is keyed by the drawn query, not by its rewrite.
    EXPECT_TRUE(stmt::StatementStore::Default()
                    .Find(twig::FingerprintQuery(*query, {}).value)
                    .has_value());

    auto search = engine_->Search(*query, options);
    ASSERT_TRUE(search.ok()) << search.status().ToString();
    EXPECT_EQ(run->executed_query.ToString(), search->executed_query.ToString());
    ASSERT_EQ(run->results.size(), search->results.size());
    for (size_t i = 0; i < run->results.size(); ++i) {
      EXPECT_EQ(run->results[i].output, search->results[i].output) << i;
      EXPECT_EQ(run->results[i].score, search->results[i].score) << i;
    }
    EXPECT_EQ(run->stats.algorithm, search->stats.algorithm);
    EXPECT_EQ(run->stats.matches, search->stats.matches);
    EXPECT_EQ(run->rewrites_applied, search->rewrites_applied);
    EXPECT_EQ(run->rewrite_penalty, search->rewrite_penalty);

    // Each case exercises the pipeline branch it is named for.
    switch (kind) {
      case Kind::kBroad:
        EXPECT_TRUE(run->rewrites_applied.empty());
        EXPECT_EQ(run->results.size(), 20u);
        break;
      case Kind::kRewritten:
        EXPECT_FALSE(run->rewrites_applied.empty());
        EXPECT_FALSE(run->results.empty());
        break;
      case Kind::kRewriteFails:
        EXPECT_TRUE(run->rewrites_applied.empty());
        EXPECT_TRUE(run->results.empty());
        break;
      case Kind::kSchemaEmpty: {
        SearchOptions drawn_only = options;
        drawn_only.rewrite_on_empty = false;
        auto drawn = engine_->Search(*query, drawn_only);
        ASSERT_TRUE(drawn.ok());
        EXPECT_EQ(drawn->stats.matches, 0u);
        EXPECT_EQ(drawn->stats.candidates_scanned, 0u);
        EXPECT_FALSE(run->rewrites_applied.empty());
        break;
      }
    }
  }
}

TEST_F(SearchPipelineTest, CanvasThatFailsToCompileCountsAsFailedSearch) {
  Session session = engine_->NewSession();
  session.canvas().AddNode(0, 0, "");  // an untagged box does not compile
  const uint64_t searches = Counter("lotusx_search_total");
  const uint64_t errors = Counter("lotusx_search_errors_total");
  const uint64_t calls = StatementCalls();
  EXPECT_FALSE(session.Run().ok());
  EXPECT_EQ(Counter("lotusx_search_total"), searches + 1);
  EXPECT_EQ(Counter("lotusx_search_errors_total"), errors + 1);
  EXPECT_EQ(StatementCalls(), calls);
}

}  // namespace
}  // namespace lotusx::session
