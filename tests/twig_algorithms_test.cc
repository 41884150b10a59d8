#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/candidates.h"
#include "twig/evaluator.h"
#include "twig/order_filter.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"

namespace lotusx::twig {
namespace {

using lotusx::testing::BruteForceMatches;
using lotusx::testing::kAllAlgorithms;
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
                      Algorithm::kTwigStack, Algorithm::kTJFast,
                      Algorithm::kStructuralJoinReordered),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return lotusx::testing::ParamName(info.param);
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

// ------------------------------------------------- TJFast cross-leaf skip
//
// TJFast reads the smallest leaf stream first and seeks every later leaf
// stream only into the subtrees of the bindings an earlier path gives
// their deepest shared query node. The binary structural join, which
// reads every stream in full, is the reference on the same multi-block
// corpora.

/// XMark corpus with recursive parlist/listitem and person/item streams
/// spanning several posting blocks.
const index::IndexedDocument& LongXmark() {
  static const index::IndexedDocument indexed = [] {
    datagen::XmarkOptions options;
    options.num_items = 600;
    options.num_people = 300;
    options.num_auctions = 300;
    options.seed = 7;
    return index::IndexedDocument(datagen::GenerateXmark(options));
  }();
  return indexed;
}

/// TJFast's matches equal the structural join's.
void ExpectTjFastAgrees(const index::IndexedDocument& indexed,
                        const TwigQuery& query) {
  SCOPED_TRACE(query.ToString());
  EvalOptions options;
  options.algorithm = Algorithm::kStructuralJoin;
  auto expected = Evaluate(indexed, query, options);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  options.algorithm = Algorithm::kTJFast;
  auto got = Evaluate(indexed, query, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->matches, expected->matches);
}

std::vector<xml::NodeId> ElementChildren(const xml::Document& document,
                                         xml::NodeId element) {
  std::vector<xml::NodeId> children;
  for (xml::NodeId child = document.node(element).first_child;
       child != xml::kInvalidNodeId;
       child = document.node(child).next_sibling) {
    if (document.node(child).kind == xml::NodeKind::kElement) {
      children.push_back(child);
    }
  }
  return children;
}

/// Appends to `query` below `parent` (bound to `from`) a chain down to a
/// random element descendant of `from`, keeping each document step as a
/// query node with probability 1/2 ('//' over skipped steps, '/' or '//'
/// over direct ones) and writing `*` for a tag now and then. Returns the
/// last query node and sets `*bound` to its document element; returns
/// `parent` when `from` has no element children.
QueryNodeId GrowChain(const xml::Document& document, TwigQuery* query,
                      QueryNodeId parent, xml::NodeId from, int max_steps,
                      Random& random, xml::NodeId* bound) {
  *bound = from;
  QueryNodeId node = parent;
  bool skipped = false;
  for (int step = 0; step < max_steps; ++step) {
    std::vector<xml::NodeId> children = ElementChildren(document, *bound);
    if (children.empty()) break;
    xml::NodeId child = children[random.NextBounded(children.size())];
    *bound = child;
    bool last =
        step + 1 == max_steps || ElementChildren(document, child).empty();
    if (!last && random.NextBool(0.5)) {
      skipped = true;
      continue;
    }
    Axis axis = skipped || random.NextBool(0.3) ? Axis::kDescendant
                                                : Axis::kChild;
    std::string tag = random.NextBool(0.15)
                          ? std::string("*")
                          : std::string(document.TagName(child));
    node = query->AddChild(node, axis, tag);
    skipped = false;
    if (last) break;
  }
  return node;
}

/// Random satisfiable twig grown from one embedding in `indexed`: a root
/// (`*` now and then; sometimes the '/'-anchored document root), a spine
/// below it, and two or three leaf branches hung off random spine nodes,
/// so the deepest node two paths share is often below the root. One leaf
/// gets a selective predicate from its element's own text half the time,
/// and a branching node is sometimes ordered.
TwigQuery RandomSkipTwig(const index::IndexedDocument& indexed,
                         Random& random) {
  const xml::Document& document = indexed.document();
  xml::NodeId root = document.root();
  const bool anchored = random.NextBool(0.15);
  if (!anchored) {
    do {
      root = static_cast<xml::NodeId>(
          random.NextBounded(static_cast<uint64_t>(document.num_nodes())));
    } while (document.node(root).kind != xml::NodeKind::kElement ||
             ElementChildren(document, root).empty());
    // Climb a level or two, staying below the document root so that
    // the matches stay within one record.
    for (uint64_t up = random.NextBounded(3); up > 0; --up) {
      xml::NodeId parent = document.node(root).parent;
      if (parent == xml::kInvalidNodeId || parent == document.root()) break;
      root = parent;
    }
  }
  TwigQuery query;
  query.AddRoot(random.NextBool(0.2) ? std::string("*")
                                     : std::string(document.TagName(root)),
                anchored ? Axis::kChild : Axis::kDescendant);
  // Spine nodes branches may hang off: bound elements with element
  // children, and not the document root once the spine leaves it.
  std::vector<std::pair<QueryNodeId, xml::NodeId>> spine = {
      {query.root(), root}};
  xml::NodeId bound;
  QueryNodeId tip = GrowChain(document, &query, query.root(), root,
                              static_cast<int>(anchored) +
                                  static_cast<int>(random.NextBounded(3)),
                              random, &bound);
  if (tip != query.root()) {
    if (anchored) spine.clear();
    if (!ElementChildren(document, bound).empty()) {
      spine.emplace_back(tip, bound);
    }
  }
  if (spine.empty()) return query;  // a path; the caller skips it
  const uint64_t branches = 2 + random.NextBounded(2);
  std::vector<std::pair<QueryNodeId, xml::NodeId>> leaves;
  for (uint64_t b = 0; b < branches; ++b) {
    auto [from_node, from] = spine[random.NextBounded(spine.size())];
    QueryNodeId leaf = GrowChain(document, &query, from_node, from,
                                 1 + static_cast<int>(random.NextBounded(3)),
                                 random, &bound);
    leaves.emplace_back(leaf, bound);
  }
  if (random.NextBool(0.5)) {
    auto [leaf, element] = leaves[random.NextBounded(leaves.size())];
    std::vector<std::string> tokens =
        TokenizeKeywords(document.ContentString(element));
    if (query.node(leaf).tag != "*" && !tokens.empty()) {
      ValuePredicate predicate;
      predicate.op = ValuePredicate::Op::kContains;
      predicate.text = tokens[random.NextBounded(tokens.size())];
      query.SetPredicate(leaf, predicate);
    }
  }
  if (random.NextBool(0.3)) {
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      if (query.node(q).children.size() >= 2) {
        query.SetOrdered(q, true);
        break;
      }
    }
  }
  return query;
}

/// Upper bound on the tuples any join materializes for `query`: the
/// embeddings of every sub-twig that keeps the root (each branch either
/// present or absent), value predicates included, order ignored. Random
/// twigs with `*` and '//' branches can have billions of matches; they
/// are skipped rather than evaluated.
double SubTwigEmbeddings(const index::IndexedDocument& indexed,
                         const TwigQuery& query) {
  const xml::Document& document = indexed.document();
  const auto n = static_cast<size_t>(document.num_nodes());
  // count[q][e]: embeddings of q's sub-twigs with q bound to e. Children
  // have larger ids than their parents, so descending ids see every
  // child before its parent.
  std::vector<std::vector<double>> count(static_cast<size_t>(query.size()));
  std::vector<std::vector<double>> prefix(count.size());
  for (QueryNodeId q = query.size() - 1; q >= 0; --q) {
    std::vector<double>& here = count[static_cast<size_t>(q)];
    here.assign(n, 0);
    for (xml::NodeId e : CandidatesFor(indexed, query, q)) {
      double embeddings = 1;
      for (QueryNodeId c : query.node(q).children) {
        const std::vector<double>& below = count[static_cast<size_t>(c)];
        double sum = 0;
        if (query.node(c).incoming_axis == Axis::kChild) {
          for (xml::NodeId child = document.node(e).first_child;
               child != xml::kInvalidNodeId;
               child = document.node(child).next_sibling) {
            sum += below[static_cast<size_t>(child)];
          }
        } else {
          const std::vector<double>& sums = prefix[static_cast<size_t>(c)];
          sum = sums[static_cast<size_t>(document.node(e).subtree_end) + 1] -
                sums[static_cast<size_t>(e) + 1];
        }
        embeddings *= 1 + sum;
      }
      here[static_cast<size_t>(e)] = embeddings;
    }
    std::vector<double>& sums = prefix[static_cast<size_t>(q)];
    sums.assign(n + 1, 0);
    for (size_t e = 0; e < n; ++e) sums[e + 1] = sums[e] + here[e];
  }
  return query.root_axis() == Axis::kChild
             ? count[0][static_cast<size_t>(document.root())]
             : prefix[0][n];
}

/// Shapes the skip must handle, tallied over a random sample so the test
/// fails if the generator stops producing one of them.
struct SkipCoverage {
  int later_selective_leaf = 0;  // smallest leaf stream not on path 0
  int shared_below_root = 0;     // two paths share more than the root
  int internal_wildcard = 0;     // a `*` with query children
  int anchored_root = 0;         // '/'-anchored query root
  int ordered = 0;
};

void Tally(const index::IndexedDocument& indexed, const TwigQuery& query,
           SkipCoverage* coverage) {
  std::vector<std::vector<QueryNodeId>> paths = query.RootToLeafPaths();
  size_t smallest = 0;
  size_t smallest_count = std::numeric_limits<size_t>::max();
  for (size_t p = 0; p < paths.size(); ++p) {
    size_t count = CandidatesFor(indexed, query, paths[p].back()).size();
    if (count < smallest_count) {
      smallest = p;
      smallest_count = count;
    }
    for (size_t o = 0; o < p; ++o) {
      if (paths[o].size() > 1 && paths[p].size() > 1 &&
          paths[o][1] == paths[p][1]) {
        ++coverage->shared_below_root;
      }
    }
  }
  if (smallest > 0) ++coverage->later_selective_leaf;
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    if (query.node(q).tag == "*" && !query.node(q).children.empty()) {
      ++coverage->internal_wildcard;
    }
  }
  if (query.root_axis() == Axis::kChild) ++coverage->anchored_root;
  if (query.HasOrderConstraints()) ++coverage->ordered;
}

TEST(TjFastSkipTest, RandomTwigsMatchTheStructuralJoin) {
  const std::pair<const char*, const index::IndexedDocument*> corpora[] = {
      {"dblp", &LongDblp()},
      {"treebank", &LongTreebank()},
      {"xmark", &LongXmark()},
  };
  for (const auto& [name, indexed] : corpora) {
    SCOPED_TRACE(name);
    Random random(17);
    SkipCoverage coverage;
    int evaluated = 0;
    for (int i = 0; i < 80; ++i) {
      TwigQuery query = RandomSkipTwig(*indexed, random);
      if (query.IsPath() || SubTwigEmbeddings(*indexed, query) > 1e6) {
        continue;
      }
      ++evaluated;
      Tally(*indexed, query, &coverage);
      ExpectTjFastAgrees(*indexed, query);
    }
    EXPECT_GE(evaluated, 40);
    EXPECT_GT(coverage.later_selective_leaf, 0);
    EXPECT_GT(coverage.shared_below_root, 0);
    EXPECT_GT(coverage.internal_wildcard, 0);
    EXPECT_GT(coverage.anchored_root, 0);
    EXPECT_GT(coverage.ordered, 0);
  }
}

TEST(TjFastSkipTest, NamedShapesMatchTheStructuralJoin) {
  const index::IndexedDocument& dblp = LongDblp();
  for (std::string_view query : {
           // The selective leaf on the last path; S is the root.
           R"(//article[author][title]/year[="1995"])",
           // S below the root, with '/' and '//' edges.
           R"(//dblp/article[author][title]/year[="1995"])",
           R"(//dblp//article[//author]/year[="1995"])",
           // '/'-anchored root.
           R"(/dblp/article[author]/year[="1995"])",
           // `*` binding dblp and each publication (nested anchors).
           R"(//*[year[="1995"]]//author)",
           R"(//dblp/*[author]/year[="1995"])",
           // Order constraints.
           R"(//article[ordered][author][year[="1995"]])",
           R"(//*[ordered][title][year[="1995"]])",
       }) {
    ExpectTjFastAgrees(dblp, Q(query));
  }
  // The leaf is the last node of S's subtree (an empty element).
  auto tail = MustIndex(
      "<r><a><b>x</b><c/></a><a><b>y</b><c/></a><a><b>x</b></a>"
      "<a><c/><a><b>x</b><c/></a></a></r>");
  for (std::string_view query :
       {R"(//a[b[="x"]]/c)", R"(//a[b[="x"]]//c)", R"(//r[a/b[="x"]]//c)"}) {
    ExpectTjFastAgrees(tail, Q(query));
  }
  const index::IndexedDocument& treebank = LongTreebank();
  for (std::string_view query :
       {"//np[pp]//np", "//s//np[pp]//np", "//*[np][pp]", "//*[pp]//np",
        "//vp/np[pp][np]", "//np[ordered][np][pp]"}) {
    ExpectTjFastAgrees(treebank, Q(query));
  }
}

TEST(TjFastSkipTest, SelectiveBranchBoundsPathSolutions) {
  // Reading the year stream first leaves only the authors and titles of
  // the few 1995 articles to decode: TJFast then materializes about as
  // many path solutions as TwigStack, not every author and title.
  const index::IndexedDocument& indexed = LongDblp();
  TwigQuery query = Q(R"(//article[author][title]/year[="1995"])");
  QueryResult tjfast = MustEvaluate(indexed, query, Algorithm::kTJFast);
  QueryResult twigstack = MustEvaluate(indexed, query, Algorithm::kTwigStack);
  ASSERT_FALSE(twigstack.matches.empty());
  EXPECT_EQ(tjfast.matches, twigstack.matches);
  EXPECT_LE(tjfast.stats.intermediate_tuples,
            2 * twigstack.stats.intermediate_tuples);
}

// ---------------------------------------- order: in the merge vs after
//
// Each join checks order one way: the holistic joins prune partial
// tuples inside their path merge, the binary joins filter complete
// matches. Under every algorithm an ordered twig's answer must equal its
// unordered twig's answer passed through FilterByOrder (the post-filter
// E4 prices), and the oracle's. Pruning in the merge can only drop
// tuples: a holistic join never materializes more than its unordered
// run, and a binary join materializes exactly as many.

/// Checks ordered `query` under every algorithm but PathStack (a path has
/// no order constraint). Returns the number of holistic evaluations that
/// materialized strictly fewer tuples than the post-filtered run.
int ExpectOrderedEqualsFilteredUnordered(
    const index::IndexedDocument& indexed, const TwigQuery& query) {
  SCOPED_TRACE(query.ToString());
  EXPECT_TRUE(query.HasOrderConstraints());
  const std::vector<Match> oracle = BruteForceMatches(indexed, query);
  const TwigQuery unordered = lotusx::testing::WithoutOrder(query);
  int pruned = 0;
  for (Algorithm algorithm : kAllAlgorithms) {
    if (algorithm == Algorithm::kPathStack) continue;
    SCOPED_TRACE(AlgorithmName(algorithm));
    const QueryResult integrated = MustEvaluate(indexed, query, algorithm);
    QueryResult filtered = MustEvaluate(indexed, unordered, algorithm);
    FilterByOrder(indexed.document(), query, &filtered.matches);
    EXPECT_EQ(integrated.matches, filtered.matches);
    EXPECT_EQ(integrated.matches, oracle);
    EXPECT_EQ(integrated.stats.algorithm, filtered.stats.algorithm);
    if (plan::IsBinaryStructuralJoin(algorithm)) {
      EXPECT_EQ(integrated.stats.intermediate_tuples,
                filtered.stats.intermediate_tuples);
    } else {
      EXPECT_LE(integrated.stats.intermediate_tuples,
                filtered.stats.intermediate_tuples);
      if (integrated.stats.intermediate_tuples <
          filtered.stats.intermediate_tuples) {
        ++pruned;
      }
    }
  }
  return pruned;
}

TEST(OrderDifferentialTest, StoreWorkloadsUnderEveryAlgorithm) {
  // E4's workloads (bench_order_sensitive) on a small store corpus.
  datagen::StoreOptions options;
  options.num_products = 120;
  index::IndexedDocument indexed(datagen::GenerateStore(options));
  int pruned = 0;
  for (std::string_view text :
       {"//product[ordered][name][price]",
        "//product[ordered][name][brand][price]",
        "//product[ordered][price][name]",
        "//product[ordered][review/rating][review/comment]",
        "//category[ordered][name][product]"}) {
    pruned += ExpectOrderedEqualsFilteredUnordered(indexed, Q(text));
  }
  // The never-true constraint price<name prunes every tuple of its last
  // join step under both holistic joins (and under kAuto).
  EXPECT_GE(pruned, 3);
}

TEST(OrderDifferentialTest, RandomOrderedTwigsUnderEveryAlgorithm) {
  const index::IndexedDocument corpora[] = {
      index::IndexedDocument(datagen::GenerateDblpWithApproxNodes(5, 2000)),
      index::IndexedDocument(
          datagen::GenerateTreebankWithApproxNodes(5, 2000)),
      index::IndexedDocument(datagen::GenerateXmarkWithApproxNodes(5, 2000)),
  };
  for (const index::IndexedDocument& indexed : corpora) {
    Random random(29);
    int evaluated = 0;
    int pruned = 0;
    for (int i = 0; i < 40; ++i) {
      TwigQuery query = RandomSkipTwig(indexed, random);
      if (query.IsPath() || SubTwigEmbeddings(indexed, query) > 1e4) {
        continue;
      }
      // Every branching node ordered, so each twig constrains order.
      for (QueryNodeId q = 0; q < query.size(); ++q) {
        if (query.node(q).children.size() >= 2) query.SetOrdered(q, true);
      }
      ++evaluated;
      pruned += ExpectOrderedEqualsFilteredUnordered(indexed, query);
    }
    EXPECT_GE(evaluated, 20);
    EXPECT_GT(pruned, 0);
  }
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
