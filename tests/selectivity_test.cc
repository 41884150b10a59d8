#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"
#include "twig/schema_match.h"
#include "twig/selectivity.h"

namespace lotusx::twig {
namespace {

using lotusx::testing::MustIndex;

TwigQuery Q(std::string_view text) {
  auto result = ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

constexpr std::string_view kXml = R"(<dblp>
  <article><author>a one</author><title>t xml</title><year>2010</year></article>
  <article><author>a two</author><title>t data</title><year>2011</year></article>
  <article><author>a three</author><title>t xml</title><year>2012</year></article>
  <book><author>b one</author><title>t books</title></book>
</dblp>)";

// ------------------------------------------------------------ SchemaMatch

TEST(SchemaMatchTest, FreeFunctionMatchesCompletionEngine) {
  auto indexed = MustIndex(kXml);
  TwigQuery query = Q("//article[author]/title");
  auto bindings = SchemaBindings(indexed, query);
  ASSERT_EQ(bindings.size(), 3u);
  EXPECT_EQ(bindings[0].size(), 1u);  // article path
  EXPECT_EQ(bindings[1].size(), 1u);  // article/author
  EXPECT_EQ(bindings[2].size(), 1u);  // article/title
}

// ------------------------------------------------------------- Estimates

TEST(SelectivityTest, ExactForSingleNodes) {
  auto indexed = MustIndex(kXml);
  SelectivityEstimate estimate =
      EstimateSelectivity(indexed, Q("//article"));
  EXPECT_DOUBLE_EQ(estimate.node_cardinality[0], 3.0);
  EXPECT_DOUBLE_EQ(estimate.match_cardinality, 3.0);
  estimate = EstimateSelectivity(indexed, Q("//author"));
  EXPECT_DOUBLE_EQ(estimate.node_cardinality[0], 4.0);
}

TEST(SelectivityTest, SchemaFilteringNarrowsNodeCardinality) {
  auto indexed = MustIndex(kXml);
  // author under book: only the single book author counts.
  SelectivityEstimate estimate =
      EstimateSelectivity(indexed, Q("//book/author"));
  EXPECT_DOUBLE_EQ(estimate.node_cardinality[1], 1.0);
  EXPECT_DOUBLE_EQ(estimate.match_cardinality, 1.0);
}

TEST(SelectivityTest, UnsatisfiableQueryEstimatesZero) {
  auto indexed = MustIndex(kXml);
  SelectivityEstimate estimate =
      EstimateSelectivity(indexed, Q("//book/year"));
  EXPECT_DOUBLE_EQ(estimate.match_cardinality, 0.0);
}

TEST(SelectivityTest, PredicateScalesEstimate) {
  auto indexed = MustIndex(kXml);
  SelectivityEstimate plain =
      EstimateSelectivity(indexed, Q("//title"));
  SelectivityEstimate filtered =
      EstimateSelectivity(indexed, Q(R"(//title[~"xml"])"));
  EXPECT_LT(filtered.node_cardinality[0], plain.node_cardinality[0]);
  EXPECT_GT(filtered.node_cardinality[0], 0.0);
}

TEST(SelectivityTest, StreamSizesSeparateLeavesFromInternals) {
  auto indexed = MustIndex(kXml);
  SelectivityEstimate estimate =
      EstimateSelectivity(indexed, Q("//article[author]/title"));
  // Each node reads its whole tag stream: article(3), author(4) and
  // title(4), the book's author and title included.
  ASSERT_EQ(estimate.node_stream_size.size(), 3u);
  EXPECT_DOUBLE_EQ(estimate.node_stream_size[0], 3.0);
  EXPECT_DOUBLE_EQ(estimate.node_stream_size[1], 4.0);
  EXPECT_DOUBLE_EQ(estimate.node_stream_size[2], 4.0);
}

TEST(SelectivityTest, NodeDepthIsTheMeanDataGuideDepth) {
  auto indexed = MustIndex(R"(<r>
    <a><t/></a>
    <b><c><t/></c></b>
    <b><c><t/></c></b>
  </r>)");
  SelectivityEstimate estimate = EstimateSelectivity(indexed, Q("//*/t"));
  // t sits at depth 2 once (r/a/t) and at depth 3 twice (r/b/c/t).
  EXPECT_DOUBLE_EQ(estimate.node_depth[1], (2.0 + 3.0 + 3.0) / 3.0);
  estimate = EstimateSelectivity(indexed, Q("//a/t"));
  EXPECT_DOUBLE_EQ(estimate.node_depth[0], 1.0);
  EXPECT_DOUBLE_EQ(estimate.node_depth[1], 2.0);
  // A node with no DataGuide position has no depth.
  estimate = EstimateSelectivity(indexed, Q("//a/c"));
  EXPECT_DOUBLE_EQ(estimate.node_depth[1], 0.0);
}

TEST(SelectivityTest, EstimateTracksActualOnGeneratedCorpus) {
  datagen::DblpOptions options;
  options.num_publications = 500;
  index::IndexedDocument indexed(datagen::GenerateDblp(options));
  for (std::string_view text :
       {"//article/title", "//article[author]/year",
        "//inproceedings/booktitle", "//dblp/*[author]/title",
        "//book[isbn]/publisher"}) {
    TwigQuery query = Q(text);
    SelectivityEstimate estimate = EstimateSelectivity(indexed, query);
    auto actual = Evaluate(indexed, query);
    ASSERT_TRUE(actual.ok());
    double real = static_cast<double>(actual->matches.size());
    // Within a factor of 3 (the estimator is schema-exact for structure;
    // only branch correlation brings error).
    EXPECT_LE(estimate.match_cardinality, real * 3 + 5) << text;
    EXPECT_GE(estimate.match_cardinality, real / 3 - 5) << text;
  }
}

}  // namespace
}  // namespace lotusx::twig
