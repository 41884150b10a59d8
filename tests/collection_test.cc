#include <gtest/gtest.h>

#include <algorithm>

#include "lotusx/collection.h"

namespace lotusx {
namespace {

constexpr std::string_view kBib = R"(<dblp>
  <article><author>lu</author><title>twig search</title></article>
  <article><author>lin</author><title>lotus search engine</title></article>
</dblp>)";

constexpr std::string_view kShop = R"(<store>
  <product><name>lotus tea</name><price>5.00</price></product>
  <product><name>search lamp</name><price>25.00</price></product>
</store>)";

Collection MakeCollection() {
  Collection collection;
  EXPECT_TRUE(collection.AddXmlText("bib", kBib).ok());
  EXPECT_TRUE(collection.AddXmlText("shop", kShop).ok());
  return collection;
}

TEST(CollectionTest, AddRemoveList) {
  Collection collection = MakeCollection();
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.DocumentNames(),
            (std::vector<std::string>{"bib", "shop"}));
  EXPECT_TRUE(collection.AddXmlText("bib", kBib).code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(collection.Remove("shop").ok());
  EXPECT_TRUE(collection.Remove("shop").IsNotFound());
  EXPECT_EQ(collection.size(), 1u);
}

TEST(CollectionTest, AddRejectsBadInput) {
  Collection collection;
  EXPECT_FALSE(collection.AddXmlText("", kBib).ok());
  EXPECT_FALSE(collection.AddXmlText("x", "<broken>").ok());
  EXPECT_FALSE(collection.AddXmlFile("y", "/does/not/exist.xml").ok());
}

TEST(CollectionTest, FindReturnsEngine) {
  Collection collection = MakeCollection();
  auto engine = collection.Find("bib");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->document().TagName(0), "dblp");
  EXPECT_TRUE(collection.Find("nope").status().IsNotFound());
}

TEST(CollectionTest, SearchMergesAcrossDocuments) {
  Collection collection = MakeCollection();
  // "lotus" occurs in one title (bib) and one product name (shop).
  auto result = collection.Search(R"(//*[~"lotus"])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 2u);
  std::set<std::string> docs;
  for (const CollectionHit& hit : result->hits) {
    docs.insert(hit.document_name);
  }
  EXPECT_EQ(docs, (std::set<std::string>{"bib", "shop"}));
}

TEST(CollectionTest, SearchHitsAreScoreOrdered) {
  Collection collection = MakeCollection();
  auto result = collection.Search(R"(//*[~"search"])");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->hits.size(), 2u);
  for (size_t i = 1; i < result->hits.size(); ++i) {
    EXPECT_GE(result->hits[i - 1].result.score, result->hits[i].result.score);
  }
}

TEST(CollectionTest, DocumentSpecificQueryDoesNotPolluteOthers) {
  Collection collection = MakeCollection();
  // //article exists only in bib; shop must contribute nothing (no
  // rewriting noise on the first pass).
  auto result = collection.Search("//article/title");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 2u);
  for (const CollectionHit& hit : result->hits) {
    EXPECT_EQ(hit.document_name, "bib");
  }
  EXPECT_TRUE(result->rewrites.empty());
}

TEST(CollectionTest, RewritingIsCollectionLevelFallback) {
  Collection collection = MakeCollection();
  // Misspelled everywhere: no document answers directly, so pass 2
  // rewrites per document.
  auto result = collection.Search("//articel/title");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->hits.empty());
  EXPECT_FALSE(result->rewrites.empty());
  // bib recovered via respelling.
  EXPECT_TRUE(result->rewrites.contains("bib"));
}

TEST(CollectionTest, TopKBoundsHits) {
  Collection collection = MakeCollection();
  auto result = collection.Search("//*", /*top_k=*/3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 3u);
}

TEST(CollectionTest, TopKPushdownKeepsMergedHits) {
  // Each engine ranks only top_k hits; the merged list must equal
  // ranking everything and truncating afterwards.
  Collection collection = MakeCollection();
  for (const char* query : {"//*", R"(//*[~"search"])", "//article/*"}) {
    SCOPED_TRACE(query);
    auto all = collection.Search(query, /*top_k=*/0);
    ASSERT_TRUE(all.ok());
    for (size_t k = 1; k <= all->hits.size() + 1; ++k) {
      auto top = collection.Search(query, k);
      ASSERT_TRUE(top.ok());
      ASSERT_EQ(top->hits.size(), std::min(k, all->hits.size()));
      for (size_t i = 0; i < top->hits.size(); ++i) {
        const CollectionHit& want = all->hits[i];
        const CollectionHit& got = top->hits[i];
        EXPECT_EQ(got.document_name, want.document_name);
        EXPECT_EQ(got.result.output, want.result.output);
        EXPECT_EQ(got.result.match, want.result.match);
        EXPECT_EQ(got.result.score, want.result.score);
      }
    }
  }
}

TEST(CollectionTest, CompleteTagMergesFrequencies) {
  Collection collection = MakeCollection();
  autocomplete::TagRequest request;
  request.axis = twig::Axis::kDescendant;
  request.limit = 10;
  auto candidates = collection.CompleteTag(twig::TwigQuery(), request);
  ASSERT_TRUE(candidates.ok());
  // article (2, bib) and product (2, shop) both present.
  std::map<std::string, uint64_t> by_name;
  for (const auto& candidate : *candidates) {
    by_name[candidate.text] = candidate.frequency;
  }
  EXPECT_EQ(by_name.at("article"), 2u);
  EXPECT_EQ(by_name.at("product"), 2u);
  EXPECT_EQ(by_name.at("title"), 2u);
  EXPECT_EQ(by_name.at("name"), 2u);
}

TEST(CollectionTest, EmptyCollectionSearch) {
  Collection collection;
  auto result = collection.Search("//a");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->hits.empty());
}

}  // namespace
}  // namespace lotusx
