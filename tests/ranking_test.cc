#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "ranking/ranker.h"
#include "tests/test_util.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"

namespace lotusx::ranking {
namespace {

using lotusx::testing::MustIndex;
using twig::TwigQuery;

TwigQuery Q(std::string_view text) {
  auto result = twig::ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<RankedResult> RunAndRank(const index::IndexedDocument& indexed,
                                     std::string_view query_text,
                                     const RankingOptions& options = {}) {
  TwigQuery query = Q(query_text);
  auto result = twig::Evaluate(indexed, query);
  EXPECT_TRUE(result.ok());
  Ranker ranker(indexed);
  return ranker.Rank(query, result->matches, options);
}

constexpr std::string_view kXml = R"(<dblp>
  <article>
    <title>xml xml xml query processing</title>
    <year>2010</year>
  </article>
  <article>
    <title>databases with a mention of xml</title>
    <year>2011</year>
  </article>
  <article>
    <title>graph processing</title>
    <year>2012</year>
  </article>
</dblp>)";

TEST(RankerTest, ContentScoreFavorsHigherTermFrequency) {
  auto indexed = MustIndex(kXml);
  std::vector<RankedResult> ranked =
      RunAndRank(indexed, R"(//title[~"xml"])");
  ASSERT_EQ(ranked.size(), 2u);
  // The title with tf=3 outranks the one with tf=1.
  EXPECT_GT(ranked[0].content_score, ranked[1].content_score);
  EXPECT_EQ(indexed.document().ContentString(ranked[0].output),
            "xml xml xml query processing");
}

TEST(RankerTest, RareTermsScoreHigherThanCommonOnes) {
  auto indexed = MustIndex(R"(<r>
    <d>common common rare</d>
    <d>common</d>
    <d>common</d>
    <d>common</d>
  </r>)");
  Ranker ranker(indexed);
  TwigQuery rare = Q(R"(//d[~"rare"])");
  TwigQuery common = Q(R"(//d[~"common"])");
  auto rare_result = twig::Evaluate(indexed, rare);
  auto common_result = twig::Evaluate(indexed, common);
  ASSERT_TRUE(rare_result.ok());
  ASSERT_TRUE(common_result.ok());
  double rare_score =
      ranker.Score(rare, rare_result->matches[0]).content_score;
  // The same node matched via the common term scores lower.
  double common_score =
      ranker.Score(common, common_result->matches[0]).content_score;
  EXPECT_GT(rare_score, common_score);
}

TEST(RankerTest, StructureScoreFavorsTightMatches) {
  auto indexed = MustIndex(R"(<r>
    <a><b><c><d><t>deep</t></d></c></b></a>
    <a><t>shallow</t></a>
  </r>)");
  std::vector<RankedResult> ranked = RunAndRank(indexed, "//a//t");
  ASSERT_EQ(ranked.size(), 2u);
  // The parent-child pair (slack 0, small span) outranks the distant one.
  EXPECT_EQ(indexed.document().ContentString(ranked[0].output), "shallow");
  EXPECT_GT(ranked[0].structure_score, ranked[1].structure_score);
}

TEST(RankerTest, SpecificityFavorsRarePaths) {
  auto indexed = MustIndex(R"(<r>
    <common/><common/><common/><common/><common/><common/><common/>
    <nest><special/></nest>
  </r>)");
  Ranker ranker(indexed);
  TwigQuery special = Q("//special");
  TwigQuery common = Q("//common");
  auto special_result = twig::Evaluate(indexed, special);
  auto common_result = twig::Evaluate(indexed, common);
  double special_score =
      ranker.Score(special, special_result->matches[0]).specificity_score;
  double common_score =
      ranker.Score(common, common_result->matches[0]).specificity_score;
  EXPECT_GT(special_score, common_score);
}

TEST(RankerTest, EqualsPredicateGetsContentBonus) {
  auto indexed = MustIndex(kXml);
  Ranker ranker(indexed);
  TwigQuery with_eq = Q(R"(//article[year[="2012"]])");
  TwigQuery without = Q("//article[year]");
  auto eq_result = twig::Evaluate(indexed, with_eq);
  ASSERT_TRUE(eq_result.ok());
  ASSERT_EQ(eq_result->matches.size(), 1u);
  double eq_content =
      ranker.Score(with_eq, eq_result->matches[0]).content_score;
  EXPECT_GT(eq_content, 0.0);
}

TEST(RankerTest, WeightsChangeOrdering) {
  auto indexed = MustIndex(R"(<r>
    <a><t>needle</t></a>
    <a><deep><t>needle needle needle</t></deep></a>
  </r>)");
  RankingOptions content_heavy;
  content_heavy.content_weight = 10;
  content_heavy.structure_weight = 0;
  content_heavy.specificity_weight = 0;
  std::vector<RankedResult> by_content =
      RunAndRank(indexed, R"(//a//t[~"needle"])", content_heavy);
  ASSERT_EQ(by_content.size(), 2u);
  EXPECT_EQ(indexed.document().ContentString(by_content[0].output),
            "needle needle needle");

  RankingOptions structure_heavy;
  structure_heavy.content_weight = 0;
  structure_heavy.structure_weight = 10;
  structure_heavy.specificity_weight = 0;
  std::vector<RankedResult> by_structure =
      RunAndRank(indexed, R"(//a//t[~"needle"])", structure_heavy);
  EXPECT_EQ(indexed.document().ContentString(by_structure[0].output),
            "needle");
}

TEST(RankerTest, TopKTruncates) {
  auto indexed = MustIndex(kXml);
  RankingOptions options;
  options.top_k = 1;
  std::vector<RankedResult> ranked = RunAndRank(indexed, "//title", options);
  EXPECT_EQ(ranked.size(), 1u);
}

TEST(RankerTest, DeterministicTieBreakByDocumentOrder) {
  auto indexed = MustIndex("<r><x/><x/><x/></r>");
  std::vector<RankedResult> ranked = RunAndRank(indexed, "//x");
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_LT(ranked[0].output, ranked[1].output);
  EXPECT_LT(ranked[1].output, ranked[2].output);
}

TEST(RankerTest, ScoreIsComposedOfWeightedSignals) {
  auto indexed = MustIndex(kXml);
  Ranker ranker(indexed);
  TwigQuery query = Q(R"(//title[~"xml"])");
  auto result = twig::Evaluate(indexed, query);
  RankingOptions options;
  options.content_weight = 2;
  options.structure_weight = 3;
  options.specificity_weight = 5;
  RankedResult scored = ranker.Score(query, result->matches[0], options);
  EXPECT_NEAR(scored.score,
              2 * scored.content_score + 3 * scored.structure_score +
                  5 * scored.specificity_score,
              1e-9);
}

// ------------------------------------------- top-k on a generated corpus

const index::IndexedDocument& Corpus() {
  static const index::IndexedDocument indexed = [] {
    datagen::DblpOptions options;
    options.num_publications = 400;
    return index::IndexedDocument(datagen::GenerateDblp(options));
  }();
  return indexed;
}

/// The corpus's two most frequent title keywords, so predicates on them
/// find postings and many matches.
std::vector<std::string> CorpusWords() {
  const xml::Document& document = Corpus().document();
  xml::TagId title = document.FindTag("title");
  std::map<std::string, int> counts;
  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    if (document.node(id).kind != xml::NodeKind::kElement ||
        document.node(id).tag != title) {
      continue;
    }
    for (std::string& word : TokenizeKeywords(document.ContentString(id))) {
      ++counts[std::move(word)];
    }
  }
  std::vector<std::pair<int, std::string>> ranked;
  for (const auto& [word, count] : counts) ranked.push_back({-count, word});
  std::sort(ranked.begin(), ranked.end());
  EXPECT_GE(ranked.size(), 2u);
  return {ranked[0].second, ranked[1].second};
}

/// Content signal recomputed per match straight from the term index:
/// sum over kContains keywords of (1 + ln tf) * ln(1 + N/df), plus 2 per
/// kEquals predicate, in query order.
double ReferenceContent(const index::IndexedDocument& indexed,
                        const TwigQuery& query, const twig::Match& match) {
  const index::TermIndex& terms = indexed.terms();
  double n = std::max<uint32_t>(terms.num_value_nodes(), 1);
  double content = 0;
  for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
    const twig::ValuePredicate& predicate = query.node(q).predicate;
    xml::NodeId bound = match.bindings[static_cast<size_t>(q)];
    if (predicate.op == twig::ValuePredicate::Op::kEquals) {
      content += 2.0;
    } else if (predicate.op == twig::ValuePredicate::Op::kContains) {
      for (const std::string& term : TokenizeKeywords(predicate.text)) {
        uint32_t tf = terms.TermFrequencyIn(term, bound);
        if (tf == 0) continue;
        content += (1.0 + std::log(static_cast<double>(tf))) *
                   std::log(1.0 + n / static_cast<double>(
                                          terms.DocFrequency(term)));
      }
    }
  }
  return content;
}

void ExpectSameResult(const RankedResult& a, const RankedResult& b) {
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.content_score, b.content_score);
  EXPECT_EQ(a.structure_score, b.structure_score);
  EXPECT_EQ(a.specificity_score, b.specificity_score);
}

/// `evaluate` supplies the matches (its shape equals `rank`'s), `rank`
/// the query they are ranked for, so a predicate can be scored over
/// matches it did not filter (e.g. a term absent from the index).
struct TopKCase {
  std::string evaluate;
  std::string rank;
};

std::vector<TopKCase> TopKCases() {
  std::vector<std::string> words = CorpusWords();
  std::string both = words[0] + " " + words[1];
  return {
      // Several matches (one per author) share each output year, and
      // their scores tie.
      {"//article[author]/year", "//article[author]/year"},
      // The same title is bound by every author match of its article.
      {R"(//article[author]/title[~")" + words[0] + R"("])",
       R"(//article[author]/title[~")" + words[0] + R"("])"},
      // Multi-term predicate, scored over titles with 0, 1 or 2 hits.
      {"//article[author]/title",
       R"(//article[author]/title[~")" + both + R"("])"},
      // A term missing from the index between two present ones.
      {"//article[author]/title", R"(//article[author]/title[~")" +
                                      words[0] + " zzqxnotaword " +
                                      words[1] + R"("])"},
      // Two content predicates and an exact-match bonus.
      {"//inproceedings[year][author]/title",
       R"(//inproceedings[year[="2005"]][author[~")" + words[0] +
           R"("]]/title[~")" + both + R"("])"},
  };
}

TEST(RankerTopKTest, TopKIsPrefixOfFullRankingAndEqualsScore) {
  const index::IndexedDocument& indexed = Corpus();
  Ranker ranker(indexed);
  for (const TopKCase& c : TopKCases()) {
    SCOPED_TRACE(c.rank);
    TwigQuery rank_query = Q(c.rank);
    auto evaluated = twig::Evaluate(indexed, Q(c.evaluate));
    ASSERT_TRUE(evaluated.ok()) << evaluated.status().ToString();
    const std::vector<twig::Match>& matches = evaluated->matches;
    const size_t n = matches.size();
    ASSERT_GT(n, 20u);

    std::vector<RankedResult> all = ranker.Rank(rank_query, matches);
    ASSERT_EQ(all.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ExpectSameResult(all[i], ranker.Score(rank_query, all[i].match));
      EXPECT_EQ(all[i].content_score,
                ReferenceContent(indexed, rank_query, all[i].match));
      if (i == 0) continue;
      const RankedResult& prev = all[i - 1];
      const RankedResult& cur = all[i];
      EXPECT_TRUE(prev.score > cur.score ||
                  (prev.score == cur.score &&
                   (prev.output < cur.output ||
                    (prev.output == cur.output && prev.match < cur.match))))
          << "entries " << i - 1 << " and " << i << " out of order";
    }

    for (size_t k : {size_t{1}, size_t{10}, size_t{20}, n, n + 1}) {
      SCOPED_TRACE(k);
      RankingOptions options;
      options.top_k = k;
      std::vector<RankedResult> top = ranker.Rank(rank_query, matches, options);
      ASSERT_EQ(top.size(), std::min(k, n));
      for (size_t i = 0; i < top.size(); ++i) ExpectSameResult(top[i], all[i]);
    }
  }
}

TEST(RankerTopKTest, TiesShareOutputNodes) {
  // The year case must actually exercise the tie-break: equal scores on
  // one output, ordered by Match.
  const index::IndexedDocument& indexed = Corpus();
  TwigQuery query = Q("//article[author]/year");
  auto evaluated = twig::Evaluate(indexed, query);
  ASSERT_TRUE(evaluated.ok());
  std::vector<RankedResult> all =
      Ranker(indexed).Rank(query, evaluated->matches);
  size_t shared = 0;
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].score == all[i - 1].score &&
        all[i].output == all[i - 1].output) {
      ++shared;
      EXPECT_LT(all[i - 1].match, all[i].match);
    }
  }
  EXPECT_GT(shared, 0u);
}

TEST(RankerTopKTest, LargeListDoesNotPinScratch) {
  // 100,000 matches (the corpus's title matches, repeated) need 4.8 MB
  // of per-match arrays; ranking them must not leave that on the thread.
  const index::IndexedDocument& indexed = Corpus();
  TwigQuery query = Q(R"(//title[~")" + CorpusWords()[0] + R"("])");
  auto evaluated = twig::Evaluate(indexed, Q("//title"));
  ASSERT_TRUE(evaluated.ok());
  const std::vector<twig::Match>& titles = evaluated->matches;
  ASSERT_FALSE(titles.empty());
  std::vector<twig::Match> large;
  while (large.size() < 100000) {
    large.insert(large.end(), titles.begin(), titles.end());
  }
  constexpr size_t kCapBytes = size_t{3} << 20;
  Ranker ranker(indexed);
  RankingOptions options;
  options.top_k = 20;

  std::vector<RankedResult> top = ranker.Rank(query, large, options);
  ASSERT_EQ(top.size(), 20u);
  ExpectSameResult(top[0], ranker.Score(query, top[0].match));
  EXPECT_LE(RetainedScratchBytes(), kCapBytes);

  ranker.Rank(query, titles, options);
  EXPECT_GT(RetainedScratchBytes(), 0u);
  EXPECT_LE(RetainedScratchBytes(), kCapBytes);
}

TEST(RankerTopKTest, EmptyMatches) {
  Ranker ranker(Corpus());
  RankingOptions options;
  options.top_k = 20;
  EXPECT_TRUE(ranker.Rank(Q(R"(//title[~"x"])"), {}, options).empty());
  EXPECT_TRUE(ranker.Rank(Q("//title"), {}).empty());
}

}  // namespace
}  // namespace lotusx::ranking
