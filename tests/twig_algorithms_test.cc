#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"

namespace lotusx::twig {
namespace {

using lotusx::testing::BruteForceMatches;
using lotusx::testing::MustIndex;

constexpr std::string_view kBibXml = R"(<dblp>
  <article key="a1">
    <author>jiaheng lu</author>
    <author>chunbin lin</author>
    <title>twig pattern matching</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>chunbin lin</author>
    <title>lotusx graphical search</title>
    <year>2012</year>
  </article>
  <book key="b1">
    <author>tok wang ling</author>
    <title>xml databases</title>
    <year>2012</year>
    <chapter><title>twig basics</title><section><title>stacks</title>
    </section></chapter>
  </book>
</dblp>)";

// Nested/recursive structure that stresses AD semantics.
constexpr std::string_view kNestedXml = R"(<r>
  <s><s><t>one</t></s><t>two</t></s>
  <s><u><s><t>three</t><u/></s></u></s>
  <t>four</t>
</r>)";

TwigQuery Q(std::string_view text) {
  auto result = ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

class AlgorithmTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  /// Evaluates with the parameterized algorithm and checks the result set
  /// equals the brute-force oracle.
  void CheckAgainstOracle(const index::IndexedDocument& indexed,
                          std::string_view query_text) {
    TwigQuery query = Q(query_text);
    if (GetParam() == Algorithm::kPathStack && !query.IsPath()) {
      GTEST_SKIP() << "PathStack only handles paths";
    }
    EvalOptions options;
    options.algorithm = GetParam();
    auto result = Evaluate(indexed, query, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Match> expected = BruteForceMatches(indexed, query);
    EXPECT_EQ(result->matches, expected)
        << "algorithm=" << AlgorithmName(GetParam()) << " query="
        << query_text << " got=" << result->matches.size()
        << " want=" << expected.size();
  }
};

TEST_P(AlgorithmTest, SingleNodeQuery) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//author");
  CheckAgainstOracle(indexed, "//title");
  CheckAgainstOracle(indexed, "//dblp");
}

TEST_P(AlgorithmTest, ChildPath) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//article/title");
  CheckAgainstOracle(indexed, "//book/chapter/title");
  CheckAgainstOracle(indexed, "/dblp/article/author");
}

TEST_P(AlgorithmTest, DescendantPath) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//book//title");
  CheckAgainstOracle(indexed, "//dblp//title");
  CheckAgainstOracle(indexed, "//chapter//title");
}

TEST_P(AlgorithmTest, RecursiveTags) {
  auto indexed = MustIndex(kNestedXml);
  CheckAgainstOracle(indexed, "//s//t");
  CheckAgainstOracle(indexed, "//s/s/t");
  CheckAgainstOracle(indexed, "//s//s//t");
  CheckAgainstOracle(indexed, "//r//s/t");
  CheckAgainstOracle(indexed, "//s//u");
}

TEST_P(AlgorithmTest, BranchingTwigs) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//article[author]/title");
  CheckAgainstOracle(indexed, "//dblp[article][book]");
  CheckAgainstOracle(indexed, "//book[chapter//title]/year");
  CheckAgainstOracle(indexed, "//article[author][year]/title");
}

TEST_P(AlgorithmTest, BranchingOnRecursiveData) {
  auto indexed = MustIndex(kNestedXml);
  CheckAgainstOracle(indexed, "//s[t]//u");
  CheckAgainstOracle(indexed, "//s[//t][//u]");
  CheckAgainstOracle(indexed, "//r[t]//s[t]");
}

TEST_P(AlgorithmTest, ValuePredicates) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, R"(//article[year[="2012"]]/title)");
  CheckAgainstOracle(indexed, R"(//title[~"twig"])");
  CheckAgainstOracle(indexed, R"(//article[author[~"lin"]]/title[~"search"])");
  CheckAgainstOracle(indexed, R"(//author[="jiaheng lu"])");
  CheckAgainstOracle(indexed, R"(//year[="1999"])");  // no matches
}

TEST_P(AlgorithmTest, AttributesAndWildcards) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//article/@key");
  CheckAgainstOracle(indexed, R"(//*[@key[="b1"]]/title)");
  CheckAgainstOracle(indexed, "//*/title");
  CheckAgainstOracle(indexed, "//book/*");
}

TEST_P(AlgorithmTest, EmptyResults) {
  auto indexed = MustIndex(kBibXml);
  CheckAgainstOracle(indexed, "//nonexistent");
  CheckAgainstOracle(indexed, "//article/chapter");
  CheckAgainstOracle(indexed, "/article");  // root is dblp
}

TEST_P(AlgorithmTest, OrderSensitiveQueries) {
  auto indexed = MustIndex(kBibXml);
  // author before title holds; title before author does not.
  CheckAgainstOracle(indexed, "//article[ordered][author][title]");
  CheckAgainstOracle(indexed, "//article[ordered][title][author]");
  CheckAgainstOracle(indexed, "//book[ordered][year][chapter]");
}

TEST_P(AlgorithmTest, GeneratedDblpCorpus) {
  datagen::DblpOptions options;
  options.num_publications = 60;
  options.seed = 7;
  index::IndexedDocument indexed(datagen::GenerateDblp(options));
  CheckAgainstOracle(indexed, "//article[author]/title");
  CheckAgainstOracle(indexed, "//inproceedings[booktitle]/year");
  CheckAgainstOracle(indexed, "//dblp/*[author][title]/year");
}

TEST_P(AlgorithmTest, GeneratedXmarkCorpus) {
  datagen::XmarkOptions options;
  options.num_items = 20;
  options.num_people = 10;
  options.num_auctions = 10;
  options.seed = 3;
  index::IndexedDocument indexed(datagen::GenerateXmark(options));
  CheckAgainstOracle(indexed, "//item[payment]//text");
  CheckAgainstOracle(indexed, "//listitem//listitem");
  CheckAgainstOracle(indexed, "//parlist[listitem//parlist]");
  CheckAgainstOracle(indexed, "//person[profile/interest]/name");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmTest,
    ::testing::Values(Algorithm::kStructuralJoin, Algorithm::kPathStack,
                      Algorithm::kTwigStack, Algorithm::kTJFast),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name(AlgorithmName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ------------------------------------- differential tests on long streams
//
// The holistic joins seek through their streams (past elements that
// cannot join, straight to the end on an empty stream). These corpora
// are large enough that every queried tag spans at least eight posting
// blocks, so the seeks cross block boundaries; the binary structural
// join, which reads every stream in full, is the reference.

/// DBLP corpus where article, author, title, year, journal and booktitle
/// streams each span at least eight 128-entry posting blocks.
const index::IndexedDocument& LongDblp() {
  static const index::IndexedDocument indexed = [] {
    datagen::DblpOptions options;
    options.num_publications = 4000;
    options.seed = 11;
    return index::IndexedDocument(datagen::GenerateDblp(options));
  }();
  return indexed;
}

/// Treebank corpus with recursive np/pp/vp streams of at least eight
/// blocks each.
const index::IndexedDocument& LongTreebank() {
  static const index::IndexedDocument indexed = [] {
    datagen::TreebankOptions options;
    options.num_sentences = 300;
    options.seed = 5;
    return index::IndexedDocument(datagen::GenerateTreebank(options));
  }();
  return indexed;
}

size_t StreamBlocks(const index::IndexedDocument& indexed,
                    std::string_view tag) {
  xml::TagId id = indexed.document().FindTag(tag);
  return id == xml::kInvalidTagId ? 0
                                  : indexed.tag_streams().blocks(id).size();
}

/// The title word occurring in the fewest titles (the alphabetically
/// first on ties): the rare `~` keyword of the rewriter's relaxations.
std::string RareTitleWord(const index::IndexedDocument& indexed) {
  const xml::Document& document = indexed.document();
  std::map<std::string, int> counts;
  xml::TagId title = document.FindTag("title");
  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    if (document.node(id).kind != xml::NodeKind::kElement ||
        document.node(id).tag != title) {
      continue;
    }
    std::vector<std::string> tokens =
        TokenizeKeywords(document.ContentString(id));
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (const std::string& token : tokens) ++counts[token];
  }
  auto rarest = std::min_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  EXPECT_NE(rarest, counts.end());
  return rarest == counts.end() ? "" : rarest->first;
}

QueryResult MustEvaluate(const index::IndexedDocument& indexed,
                         const TwigQuery& query, Algorithm algorithm) {
  EvalOptions options;
  options.algorithm = algorithm;
  auto result = Evaluate(indexed, query, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

/// TwigStack, TJFast and (on paths) PathStack return exactly the
/// structural join's matches.
void ExpectHolisticJoinsAgree(const index::IndexedDocument& indexed,
                              std::string_view query_text) {
  SCOPED_TRACE(std::string(query_text));
  TwigQuery query = Q(query_text);
  std::vector<Match> expected =
      MustEvaluate(indexed, query, Algorithm::kStructuralJoin).matches;
  EXPECT_EQ(MustEvaluate(indexed, query, Algorithm::kTwigStack).matches,
            expected);
  EXPECT_EQ(MustEvaluate(indexed, query, Algorithm::kTJFast).matches,
            expected);
  if (query.IsPath()) {
    EXPECT_EQ(MustEvaluate(indexed, query, Algorithm::kPathStack).matches,
              expected);
  }
}

TEST(MultiBlockStreamTest, RewriteShapesOnDblp) {
  const index::IndexedDocument& indexed = LongDblp();
  for (std::string_view tag :
       {"article", "author", "title", "year", "journal", "booktitle"}) {
    ASSERT_GE(StreamBlocks(indexed, tag), 8u) << tag;
  }
  const std::string rare = RareTitleWord(indexed);
  const std::string keyword = "[~\"" + rare + "\"]";
  const std::string equals = "[=\"" + rare + "\"]";
  for (const std::string& query : {
           // A rare keyword next to a common branch.
           "//article[title" + keyword + "]/author",
           "//dblp/*[title" + keyword + "]//author",
           "//article/title" + keyword,
           // Impossible branch, equality miss, unknown tag.
           std::string("//article[booktitle]/author"),
           "//article[title" + equals + "]/author",
           std::string("//article[year[=\"1850\"]]/title"),
           std::string("//article[ear]/author"),
           std::string("//dblp//ear"),
           // Wildcard steps and an ordered node.
           std::string("//dblp/*[author]/title"),
           std::string("//*[booktitle]//author"),
           std::string("//article/*"),
           std::string("//article[ordered][author][title]"),
           std::string("//*[ordered][title][year]"),
           // Common twigs and paths.
           std::string("//article[author]/title"),
           std::string("//dblp//article[journal]/year"),
           std::string("//inproceedings/booktitle"),
           std::string("//dblp//author"),
       }) {
    ExpectHolisticJoinsAgree(indexed, query);
  }
}

TEST(MultiBlockStreamTest, SameTagRecursionOnTreebank) {
  const index::IndexedDocument& indexed = LongTreebank();
  for (std::string_view tag : {"np", "pp", "vp"}) {
    ASSERT_GE(StreamBlocks(indexed, tag), 8u) << tag;
  }
  for (std::string_view query :
       {"//np//np", "//np[np]//np", "//np//np//np", "//s//np[pp]//np",
        "//vp/np//pp", "//s[vp]//np", "//np/*", "//*[np]/pp",
        "//pp[ordered][np][np]"}) {
    ExpectHolisticJoinsAgree(indexed, query);
  }
}

TEST(MultiBlockStreamTest, SelectiveTwigSeeksPastUnusedBlocks) {
  // article, author and title together span well over a hundred blocks.
  // A join that seeks from one rare title to the next decodes a few
  // blocks per title hit (37 here); one that scans decodes every article
  // and author block (103).
  const index::IndexedDocument& indexed = LongDblp();
  ASSERT_GE(StreamBlocks(indexed, "article") + StreamBlocks(indexed, "author"),
            80u);
  TwigQuery query =
      Q("//article[title[~\"" + RareTitleWord(indexed) + "\"]]/author");
  QueryResult result = MustEvaluate(indexed, query, Algorithm::kTwigStack);
  EXPECT_LE(result.stats.posting_blocks_decoded, 60u);
  EXPECT_GT(result.stats.posting_blocks_skipped, 0u);
}

TEST(MultiBlockStreamTest, EmptyStreamStopsBeforeTheJoin) {
  const index::IndexedDocument& indexed = LongDblp();
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kTJFast}) {
    QueryResult result =
        MustEvaluate(indexed, Q("//article[ear]/author"), algorithm);
    EXPECT_TRUE(result.matches.empty());
    EXPECT_EQ(result.stats.intermediate_tuples, 0u)
        << AlgorithmName(algorithm);
  }
  QueryResult path =
      MustEvaluate(indexed, Q("//article//ear"), Algorithm::kPathStack);
  EXPECT_TRUE(path.matches.empty());
  EXPECT_EQ(path.stats.intermediate_tuples, 0u);
}

// ------------------------------------------------- evaluator-level tests

TEST(EvaluatorTest, AutoPicksPathStackForPaths) {
  auto indexed = MustIndex(kBibXml);
  auto result = Evaluate(indexed, Q("//book/title"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.algorithm, "pathstack");
}

TEST(EvaluatorTest, AutoPicksHolisticForTwigs) {
  auto indexed = MustIndex(kBibXml);
  auto result = Evaluate(indexed, Q("//book[year]/title"));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.algorithm == "twigstack" ||
              result->stats.algorithm == "tjfast")
      << result->stats.algorithm;
}

TEST(EvaluatorTest, AutoPrefersTjFastWhenInternalStreamsDominate) {
  // The internal query tag 'a' floods the document; the leaves are rare.
  // Cost-based selection must avoid scanning the huge internal stream.
  std::string xml = "<r>";
  for (int i = 0; i < 50; ++i) {
    xml += "<a><a><a>";
    if (i % 10 == 0) xml += "<b/><c/>";
    xml += "</a></a></a>";
  }
  xml += "</r>";
  auto indexed = MustIndex(xml);
  auto result = Evaluate(indexed, Q("//a[b]/c"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.algorithm, "tjfast");
}

TEST(EvaluatorTest, PathStackRejectsTwigs) {
  auto indexed = MustIndex(kBibXml);
  EvalOptions options;
  options.algorithm = Algorithm::kPathStack;
  auto result = Evaluate(indexed, Q("//book[year]/title"), options);
  EXPECT_FALSE(result.ok());
}

TEST(EvaluatorTest, InvalidQueryRejected) {
  auto indexed = MustIndex(kBibXml);
  TwigQuery query;  // empty
  EXPECT_FALSE(Evaluate(indexed, query).ok());
}

TEST(EvaluatorTest, OrderFilterCanBeDisabled) {
  auto indexed = MustIndex(kBibXml);
  TwigQuery ordered = Q("//article[ordered][title][author]");
  EvalOptions with;
  with.apply_order = true;
  EvalOptions without;
  without.apply_order = false;
  auto filtered = Evaluate(indexed, ordered, with);
  auto unfiltered = Evaluate(indexed, ordered, without);
  ASSERT_TRUE(filtered.ok());
  ASSERT_TRUE(unfiltered.ok());
  EXPECT_LT(filtered->matches.size(), unfiltered->matches.size());
  EXPECT_TRUE(filtered->matches.empty());  // title never precedes author
}

TEST(EvaluatorTest, OutputNodesProjectsAndDeduplicates) {
  auto indexed = MustIndex(kBibXml);
  TwigQuery query = Q("//article[author]/title");
  auto result = Evaluate(indexed, query);
  ASSERT_TRUE(result.ok());
  // a1 has two authors -> two matches, one title; a2 one author.
  EXPECT_EQ(result->matches.size(), 3u);
  std::vector<xml::NodeId> titles = result->OutputNodes(query.output());
  EXPECT_EQ(titles.size(), 2u);
}

TEST(EvaluatorTest, StatsArePopulated) {
  auto indexed = MustIndex(kBibXml);
  auto result = Evaluate(indexed, Q("//article[author]/title"));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_scanned, 0u);
  EXPECT_EQ(result->stats.matches, result->matches.size());
  EXPECT_GE(result->stats.elapsed_ms, 0.0);
}

}  // namespace
}  // namespace lotusx::twig
