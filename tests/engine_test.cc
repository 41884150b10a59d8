#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "lotusx/engine.h"
#include "xml/writer.h"

namespace lotusx {
namespace {

constexpr std::string_view kXml = R"(<dblp>
  <article key="a1">
    <author>jiaheng lu</author>
    <title>twig joins revisited</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>chunbin lin</author>
    <title>lotusx graphical search</title>
    <year>2012</year>
  </article>
</dblp>)";

TEST(EngineTest, FromXmlTextAndSearch) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine->Search("//article[author]/title");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->results.size(), 2u);
  EXPECT_TRUE(result->rewrites_applied.empty());
}

TEST(EngineTest, ExplainRendersThePhysicalPlan) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  auto text = engine->Explain("//article[author]/title");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("stream-scan"), std::string::npos) << *text;
  EXPECT_NE(text->find("est rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("estimated matches"), std::string::npos) << *text;
}

TEST(EngineTest, ExplainHonorsEvalOptions) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  SearchOptions options;
  options.eval.algorithm = twig::Algorithm::kStructuralJoin;
  auto text = engine->Explain("//article[author]/title", options);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("binary-structural-join"), std::string::npos) << *text;
  EXPECT_NE(text->find("forced by caller hint"), std::string::npos) << *text;
}

TEST(EngineTest, ExplainRejectsBadSyntax) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Explain("not a query").ok());
}

TEST(EngineTest, SearchRejectsBadSyntax) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Search("not a query").ok());
}

TEST(EngineTest, FromXmlTextRejectsMalformedXml) {
  EXPECT_FALSE(Engine::FromXmlText("<a><b></a>").ok());
}

TEST(EngineTest, SearchAppliesRewritesOnEmpty) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Search("//article/titel");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->rewrites_applied.empty());
  EXPECT_EQ(result->results.size(), 2u);
  // Rewriting can be disabled.
  SearchOptions options;
  options.rewrite_on_empty = false;
  auto strict = engine->Search("//article/titel", options);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->results.empty());
}

TEST(EngineTest, IndexFileRoundTrip) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  std::string path = ::testing::TempDir() + "/lotusx_engine_test.ltsx";
  ASSERT_TRUE(engine->SaveIndex(path).ok());
  auto loaded = Engine::FromIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto a = engine->Search("//article/title");
  auto b = loaded->Search("//article/title");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->results.size(), b->results.size());
  for (size_t i = 0; i < a->results.size(); ++i) {
    EXPECT_EQ(a->results[i].output, b->results[i].output);
    EXPECT_DOUBLE_EQ(a->results[i].score, b->results[i].score);
  }
  std::remove(path.c_str());
}

TEST(EngineTest, FromXmlFile) {
  std::string path = ::testing::TempDir() + "/lotusx_engine_doc.xml";
  ASSERT_TRUE(WriteStringToFile(path, kXml).ok());
  auto engine = Engine::FromXmlFile(path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->document().TagName(engine->document().root()), "dblp");
  std::remove(path.c_str());
  EXPECT_FALSE(Engine::FromXmlFile("/nonexistent.xml").ok());
}

TEST(EngineTest, CompletionPassThrough) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  twig::TwigQuery query;
  query.AddRoot("article");
  autocomplete::TagRequest request;
  request.anchor = 0;
  request.axis = twig::Axis::kChild;
  request.prefix = "a";
  auto tags = engine->CompleteTag(query, request);
  ASSERT_TRUE(tags.ok());
  ASSERT_FALSE(tags->empty());
  EXPECT_EQ((*tags)[0].text, "author");
  auto values = engine->CompleteValue(query, 0, "");
  ASSERT_TRUE(values.ok());
}

TEST(EngineTest, SnippetRendersNodes) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Search("//article[author]/title");
  ASSERT_TRUE(result.ok());
  std::string snippet = engine->Snippet(result->results[0].output);
  EXPECT_EQ(snippet.substr(0, 7), "<title>");
  // Truncation.
  std::string tiny = engine->Snippet(result->results[0].output, 10);
  EXPECT_LE(tiny.size(), 10u);
  EXPECT_EQ(tiny.substr(tiny.size() - 3), "...");
  // Budgets too small for the ellipsis get a bare prefix.
  for (size_t max_chars = 0; max_chars <= 3; ++max_chars) {
    std::string cut = engine->Snippet(result->results[0].output, max_chars);
    EXPECT_EQ(cut, max_chars == 3 ? "..." : snippet.substr(0, max_chars))
        << max_chars;
  }
}

TEST(EngineTest, SessionIntegration) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  session::Session session = engine->NewSession();
  session::CanvasNodeId root = session.canvas().AddNode(0, 0, "article");
  auto suggestions = session.SuggestTags(root, twig::Axis::kChild, "");
  ASSERT_TRUE(suggestions.ok());
  EXPECT_FALSE(suggestions->empty());
}

TEST(EngineTest, EndToEndOnGeneratedCorpus) {
  datagen::DblpOptions options;
  options.num_publications = 200;
  xml::Document doc = datagen::GenerateDblp(options);
  std::string xml = xml::WriteXml(doc);
  auto engine = Engine::FromXmlText(xml);
  ASSERT_TRUE(engine.ok());
  auto result = engine->Search("//article[author][year]/title");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->results.size(), 0u);
  // Order-sensitive query: author always precedes title in generated
  // data, so the reversed constraint has no strict matches.
  SearchOptions strict;
  strict.rewrite_on_empty = false;
  auto ordered = engine->Search("//article[ordered][author][title]", strict);
  auto reversed = engine->Search("//article[ordered][title][author]", strict);
  ASSERT_TRUE(ordered.ok());
  ASSERT_TRUE(reversed.ok());
  EXPECT_GT(ordered->results.size(), 0u);
  EXPECT_TRUE(reversed->results.empty());
}

}  // namespace
}  // namespace lotusx
