// Full-stack integration scenarios: each test walks an entire user
// journey through the public API — generate, serialize, parse, index,
// persist, reload, discover, draw, complete, run, rank, rewrite, export —
// asserting consistency at every hand-off point.

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "keyword/keyword_search.h"
#include "lotusx/collection.h"
#include "lotusx/engine.h"
#include "session/canvas_io.h"
#include "session/protocol.h"
#include "session/svg_export.h"
#include "twig/query_export.h"
#include "twig/query_from_example.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"
#include "twig/selectivity.h"
#include "xml/dom_builder.h"
#include "xml/writer.h"

namespace lotusx {
namespace {

TEST(IntegrationTest, GenerateIndexPersistQueryLifecycle) {
  // 1. Generate a corpus and write it as XML text.
  datagen::DblpOptions corpus;
  corpus.num_publications = 300;
  corpus.seed = 77;
  std::string xml = xml::WriteXml(datagen::GenerateDblp(corpus));

  // 2. Engine from text.
  auto engine = Engine::FromXmlText(xml);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // 3. Query, rank; remember the top answer.
  auto first = engine->Search("//article[author][year]/title");
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->results.empty());
  xml::NodeId top = first->results[0].output;

  // 4. Persist the index, reload a second engine from the image.
  std::string path = ::testing::TempDir() + "/lotusx_integration.ltsx";
  ASSERT_TRUE(engine->SaveIndex(path).ok());
  auto reloaded = Engine::FromIndexFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::remove(path.c_str());

  // 5. The reloaded engine gives identical answers and scores.
  auto second = reloaded->Search("//article[author][year]/title");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->results.size(), first->results.size());
  EXPECT_EQ(second->results[0].output, top);
  EXPECT_DOUBLE_EQ(second->results[0].score, first->results[0].score);

  // 6. Materialized results re-parse with our own parser.
  std::string materialized = engine->MaterializeResults(*first, 5);
  auto parsed = xml::ParseDocument(materialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << materialized;
  EXPECT_EQ(parsed->TagName(parsed->root()), "results");
  int rendered = 0;
  for (xml::NodeId id : parsed->Children(parsed->root())) {
    if (parsed->node(id).kind == xml::NodeKind::kElement) ++rendered;
  }
  EXPECT_EQ(rendered, 5);
}

TEST(IntegrationTest, DiscoverExampleRefineRunJourney) {
  // The full LotusX loop: keywords -> example -> canvas -> completion ->
  // refined query -> ranked answers.
  datagen::StoreOptions corpus;
  corpus.num_products = 400;
  corpus.seed = 21;
  index::IndexedDocument indexed(datagen::GenerateStore(corpus));

  // 1. Schema-free discovery: what connects a brand term and a rating?
  auto brand_terms = indexed.terms().term_trie_for_tag(
      indexed.document().FindTag("brand"));
  ASSERT_NE(brand_terms, nullptr);
  std::string brand = brand_terms->Complete("", 1)[0].key;
  auto hits = keyword::SlcaSearch(indexed, brand + " 5");
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());

  // 2. Turn the best hit into a query.
  auto example = twig::QueryFromExample(indexed, (*hits)[0].node);
  ASSERT_TRUE(example.ok()) << example.status().ToString();

  // 3. Load it onto a session canvas and refine via the protocol.
  session::Session session(indexed);
  session::ProtocolInterpreter interpreter(&session);
  session.canvas() = session::CanvasFromQuery(*example);
  auto shown = interpreter.Execute("SHOW");
  ASSERT_TRUE(shown.ok());

  // 4. Position-aware completion on the canvas root must only offer tags
  //    satisfiable there.
  session::CanvasNodeId root_box = session.canvas().nodes()[0].id;
  auto candidates =
      session.SuggestTags(root_box, twig::Axis::kChild, "");
  ASSERT_TRUE(candidates.ok());
  autocomplete::CompletionEngine completion(indexed);
  auto compiled = session.canvas().Compile();
  ASSERT_TRUE(compiled.ok());
  for (const autocomplete::Candidate& candidate : *candidates) {
    EXPECT_TRUE(completion.ExtensionIsSatisfiable(
        *compiled, 0, twig::Axis::kChild, candidate.text))
        << candidate.text;
  }

  // 5. Run, ranked.
  auto response = session.Run();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->results.empty());

  // 6. Export the drawing and the query.
  std::string svg = session::RenderCanvasSvg(session.canvas());
  EXPECT_TRUE(xml::ParseDocument(svg).ok());
  auto xquery = session.CanvasToXQuery();
  ASSERT_TRUE(xquery.ok());
  EXPECT_NE(xquery->find("return $n"), std::string::npos);
}

TEST(IntegrationTest, RewritePipelineRepairsScriptedMistakes) {
  datagen::DblpOptions corpus;
  corpus.num_publications = 200;
  index::IndexedDocument indexed(datagen::GenerateDblp(corpus));
  session::Session session(indexed);
  session::ProtocolInterpreter interpreter(&session);
  auto run = [&](std::string_view line) {
    auto response = interpreter.Execute(line);
    EXPECT_TRUE(response.ok()) << line << ": "
                               << response.status().ToString();
    return response.ok() ? *response : "";
  };
  run("ADD 0 0 article");
  run("ADD 0 100 titel");  // typo
  run("EDGE 1 2 /");
  std::string result = run("RUN");
  EXPECT_NE(result.find("rewritten"), std::string::npos) << result;
  EXPECT_NE(result.find("respell"), std::string::npos) << result;
  // History records the REPAIRED query (the one that executed).
  std::string history = run("HISTORY");
  EXPECT_NE(history.find("title"), std::string::npos) << history;
}

TEST(IntegrationTest, CollectionOfPersistedIndexes) {
  // Save two corpora as index images, load them into a collection, and
  // search across both.
  std::string dblp_path = ::testing::TempDir() + "/lotusx_int_dblp.ltsx";
  std::string store_path = ::testing::TempDir() + "/lotusx_int_store.ltsx";
  {
    datagen::DblpOptions options;
    options.num_publications = 120;
    index::IndexedDocument indexed(datagen::GenerateDblp(options));
    ASSERT_TRUE(indexed.SaveTo(dblp_path).ok());
  }
  {
    datagen::StoreOptions options;
    options.num_products = 120;
    index::IndexedDocument indexed(datagen::GenerateStore(options));
    ASSERT_TRUE(indexed.SaveTo(store_path).ok());
  }
  Collection collection;
  ASSERT_TRUE(collection.AddIndexFile("dblp", dblp_path).ok());
  ASSERT_TRUE(collection.AddIndexFile("store", store_path).ok());
  std::remove(dblp_path.c_str());
  std::remove(store_path.c_str());

  auto result = collection.Search("//title", /*top_k=*/10);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 10u);
  auto store_only = collection.Search("//product/price", /*top_k=*/5);
  ASSERT_TRUE(store_only.ok());
  for (const CollectionHit& hit : store_only->hits) {
    EXPECT_EQ(hit.document_name, "store");
  }
}

TEST(IntegrationTest, ExplainAgreesWithExecution) {
  datagen::XmarkOptions corpus;
  corpus.num_items = 100;
  index::IndexedDocument indexed(datagen::GenerateXmark(corpus));
  for (std::string_view text :
       {"//item[payment]/name", "//person/name", "//listitem//text"}) {
    twig::TwigQuery query = twig::ParseQuery(text).value();
    twig::SelectivityEstimate estimate =
        twig::EstimateSelectivity(indexed, query);
    auto result = twig::Evaluate(indexed, query);
    ASSERT_TRUE(result.ok());
    // The algorithm named by EXPLAIN is the one kAuto actually ran.
    auto report = twig::plan::ExplainQuery(indexed, query);
    ASSERT_TRUE(report.ok());
    EXPECT_NE(report->find("algorithm: " + result->stats.algorithm),
              std::string::npos)
        << *report;
    // Structure-only estimates stay within 3x of the truth here.
    double actual = static_cast<double>(result->matches.size());
    EXPECT_LE(estimate.match_cardinality, actual * 3 + 5) << text;
    EXPECT_GE(estimate.match_cardinality, actual / 3 - 5) << text;
  }
}

}  // namespace
}  // namespace lotusx
