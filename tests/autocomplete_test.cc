#include <gtest/gtest.h>

#include "autocomplete/completion.h"
#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/query_parser.h"
#include "twig/schema_match.h"

namespace lotusx::autocomplete {
namespace {

using lotusx::testing::MustIndex;
using twig::Axis;
using twig::SchemaBindings;
using twig::TwigQuery;

constexpr std::string_view kStoreXml = R"(<store>
  <name>main store</name>
  <category>
    <name>books</name>
    <product sku="p1">
      <name>xml handbook</name>
      <brand>acme</brand>
      <price>30.00</price>
      <review><rating>5</rating><comment>great xml content</comment></review>
    </product>
    <product sku="p2">
      <name>twig poster</name>
      <brand>zeta</brand>
      <price>5.00</price>
    </product>
  </category>
  <category>
    <name>music</name>
    <album id="m1">
      <name>lotus songs</name>
      <artist>acme band</artist>
    </album>
  </category>
</store>)";

TwigQuery Q(std::string_view text) {
  auto result = twig::ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<std::string> Texts(const std::vector<Candidate>& candidates) {
  std::vector<std::string> texts;
  for (const Candidate& candidate : candidates) {
    texts.push_back(candidate.text);
  }
  return texts;
}

// --------------------------------------------------------- SchemaBindings

TEST(SchemaBindingsTest, SingleNodeBindsAllItsPaths) {
  auto indexed = MustIndex(kStoreXml);
  // "name" occurs at 5 distinct paths: store/name, category/name,
  // product/name, album/name... store/category/name and
  // store/category/product/name and store/category/album/name -> 4.
  auto bindings = SchemaBindings(indexed, Q("//name"));
  EXPECT_EQ(bindings[0].size(), 4u);
}

TEST(SchemaBindingsTest, StructureRestrictsBindings) {
  auto indexed = MustIndex(kStoreXml);
  // name under product: exactly one path.
  auto bindings = SchemaBindings(indexed, Q("//product/name"));
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[0].size(), 1u);  // product path
  EXPECT_EQ(bindings[1].size(), 1u);  // product/name path
  const index::DataGuide& guide = indexed.dataguide();
  EXPECT_EQ(guide.PathString(indexed.document(), bindings[1][0]),
            "/store/category/product/name");
}

TEST(SchemaBindingsTest, BranchesConstrainEachOther) {
  auto indexed = MustIndex(kStoreXml);
  // A node with both brand and review children must be a product; name
  // under it binds only to the product name path.
  auto bindings = SchemaBindings(indexed, Q("//*[brand][review]/name"));
  EXPECT_EQ(bindings[3].size(), 1u);
  // With an artist child it must be an album.
  auto album = SchemaBindings(indexed, Q("//*[artist]/name"));
  ASSERT_EQ(album[0].size(), 1u);
  EXPECT_EQ(indexed.dataguide().PathString(indexed.document(), album[0][0]),
            "/store/category/album");
}

TEST(SchemaBindingsTest, UnsatisfiableQueryHasEmptyBindings) {
  auto indexed = MustIndex(kStoreXml);
  auto bindings = SchemaBindings(indexed, Q("//album/brand"));
  EXPECT_TRUE(bindings[0].empty());
  EXPECT_TRUE(bindings[1].empty());
}

TEST(SchemaBindingsTest, RootAxisAnchorsToDocumentRoot) {
  auto indexed = MustIndex(kStoreXml);
  EXPECT_EQ(SchemaBindings(indexed, Q("/store"))[0].size(), 1u);
  EXPECT_TRUE(SchemaBindings(indexed, Q("/category"))[0].empty());
  EXPECT_EQ(SchemaBindings(indexed, Q("//category"))[0].size(), 1u);
}

TEST(SchemaBindingsTest, ValuePredicateRequiresText) {
  auto indexed = MustIndex("<r><a><b>text</b></a><a><c/></a></r>");
  TwigQuery with_value = Q(R"(//c[~"x"])");
  // c has no text: no path qualifies.
  EXPECT_TRUE(SchemaBindings(indexed, with_value)[0].empty());
  TwigQuery b_value = Q(R"(//b[~"text"])");
  EXPECT_EQ(SchemaBindings(indexed, b_value)[0].size(), 1u);
}

// ------------------------------------------------------------ CompleteTag

TEST(CompleteTagTest, RootSuggestionsGlobal) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TagRequest request;
  request.axis = Axis::kDescendant;
  request.limit = 3;
  auto candidates = engine.CompleteTag(TwigQuery(), request);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 3u);
  // "name" is the most frequent tag (6 occurrences).
  EXPECT_EQ((*candidates)[0].text, "name");
  EXPECT_EQ((*candidates)[0].frequency, 6u);
}

TEST(CompleteTagTest, RootChildAxisSuggestsDocumentRootOnly) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TagRequest request;
  request.axis = Axis::kChild;
  auto candidates = engine.CompleteTag(TwigQuery(), request);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 1u);
  EXPECT_EQ((*candidates)[0].text, "store");
}

TEST(CompleteTagTest, PositionAwareChildSuggestions) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kChild;
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts = Texts(*candidates);
  // Children of product paths only.
  EXPECT_NE(std::find(texts.begin(), texts.end(), "brand"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "@sku"), texts.end());
  // artist/category are NOT possible under product.
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "artist"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "category"), texts.end());
}

TEST(CompleteTagTest, DescendantIncludesDeeperTags) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kDescendant;
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts = Texts(*candidates);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "rating"), texts.end());
}

TEST(CompleteTagTest, PrefixFilters) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kChild;
  request.prefix = "pr";
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(Texts(*candidates), (std::vector<std::string>{"price"}));
}

TEST(CompleteTagTest, ContextFromSiblingBranchesNarrowsCandidates) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  // Anchor is a wildcard with an artist child: it must be an album, so
  // child suggestions must come from album paths only.
  TwigQuery query = Q("//*[artist]");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kChild;
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts = Texts(*candidates);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "name"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "@id"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "price"), texts.end());
}

TEST(CompleteTagTest, GlobalBaselineIgnoresPosition) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//album");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kChild;
  request.position_aware = false;
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts = Texts(*candidates);
  // The global baseline happily suggests "price" under album.
  EXPECT_NE(std::find(texts.begin(), texts.end(), "price"), texts.end());
}

TEST(CompleteTagTest, EveryPositionAwareCandidateIsSatisfiable) {
  datagen::StoreOptions options;
  options.num_products = 60;
  index::IndexedDocument indexed(datagen::GenerateStore(options));
  CompletionEngine engine(indexed);
  for (std::string_view anchor_query :
       {"//product", "//category", "//review", "//store", "//*[rating]"}) {
    TwigQuery query = Q(anchor_query);
    for (Axis axis : {Axis::kChild, Axis::kDescendant}) {
      TagRequest request;
      request.anchor = 0;
      request.axis = axis;
      request.limit = 100;
      auto candidates = engine.CompleteTag(query, request);
      ASSERT_TRUE(candidates.ok());
      for (const Candidate& candidate : *candidates) {
        EXPECT_TRUE(
            engine.ExtensionIsSatisfiable(query, 0, axis, candidate.text))
            << anchor_query << " + " << candidate.text;
      }
    }
  }
}

TEST(CompleteTagTest, InvalidAnchorRejected) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product");
  TagRequest request;
  request.anchor = 5;
  EXPECT_FALSE(engine.CompleteTag(query, request).ok());
}

// ---------------------------------------------------------- CompleteValue

TEST(CompleteValueTest, PerTagTerms) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product/name");
  auto candidates =
      engine.CompleteValue(query, 1, "", 10, /*position_aware=*/true);
  ASSERT_TRUE(candidates.ok());
  std::vector<std::string> texts = Texts(*candidates);
  // Terms of name values anywhere (per-tag granularity): includes "xml"
  // and "twig" but never "acme" (a brand term) or "great" (a comment).
  EXPECT_NE(std::find(texts.begin(), texts.end(), "xml"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "acme"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "great"), texts.end());
}

TEST(CompleteValueTest, PrefixAndCase) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//comment");
  auto candidates =
      engine.CompleteValue(query, 0, "GR", 10, /*position_aware=*/true);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(Texts(*candidates), (std::vector<std::string>{"great"}));
}

TEST(CompleteValueTest, UnsatisfiablePositionYieldsNothing) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  // brand under album is unsatisfiable.
  TwigQuery query = Q("//album/brand");
  auto candidates =
      engine.CompleteValue(query, 1, "", 10, /*position_aware=*/true);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
}

TEST(CompleteValueTest, GlobalFallback) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//album/name");
  auto candidates =
      engine.CompleteValue(query, 1, "gr", 10, /*position_aware=*/false);
  ASSERT_TRUE(candidates.ok());
  // Global: "great" appears even though it never occurs in a name.
  EXPECT_EQ(Texts(*candidates), (std::vector<std::string>{"great"}));
}

// ---------------------------------------------------- Case sensitivity
// Pins the documented contract (completion.h): tag prefixes match
// case-sensitively (XML names are case-sensitive), value prefixes match
// case-insensitively (terms are stored lowercased).

TEST(CaseSensitivityTest, TagPrefixIsCaseSensitivePositionAware) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//product");
  TagRequest request;
  request.anchor = 0;
  request.axis = Axis::kChild;
  request.prefix = "PR";  // "price" must NOT match
  auto candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
  request.prefix = "pr";
  candidates = engine.CompleteTag(query, request);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(Texts(*candidates), (std::vector<std::string>{"price"}));
}

TEST(CaseSensitivityTest, TagPrefixIsCaseSensitiveGlobal) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TagRequest request;
  request.prefix = "NAME";
  request.position_aware = false;
  auto candidates = engine.CompleteTag(TwigQuery(), request);
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
}

TEST(CaseSensitivityTest, ValuePrefixIsCaseInsensitive) {
  auto indexed = MustIndex(kStoreXml);
  CompletionEngine engine(indexed);
  TwigQuery query = Q("//comment");
  auto upper = engine.CompleteValue(query, 0, "GREAT", 10,
                                    /*position_aware=*/true);
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(Texts(*upper), (std::vector<std::string>{"great"}));
  auto lower = engine.CompleteValue(query, 0, "great", 10,
                                    /*position_aware=*/true);
  ASSERT_TRUE(lower.ok());
  EXPECT_EQ(Texts(*upper), Texts(*lower));
}

}  // namespace
}  // namespace lotusx::autocomplete
