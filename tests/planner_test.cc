// Tests for the cost-based planner layer (twig/plan/): the kAuto choice
// as the cheapest priced join, plan shapes, the plan-equivalence
// guarantee (every physical plan returns exactly the brute-force match
// set), schema-empty plans, and the rendered EXPLAIN output the
// acceptance criteria pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/evaluator.h"
#include "twig/path_stack.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"
#include "twig/schema_match.h"
#include "twig/selectivity.h"
#include "twig/structural_join.h"
#include "twig/tjfast.h"
#include "twig/twig_stack.h"

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

/// A document where the query //a[b][c] sees exactly `num_a` <a> elements
/// and 30 each of <b> and <c>.
index::IndexedDocument ThreeStreamDoc(int num_a) {
  std::string xml = "<r>";
  for (int i = 0; i < 30; ++i) xml += "<a><b/><c/></a>";
  for (int i = 30; i < num_a; ++i) xml += "<a/>";
  xml += "</r>";
  return MustIndex(xml);
}

// ------------------------------------------------- the kAuto choice

/// The join operator's estimated cost in `plan`.
double JoinOperatorCost(const plan::PhysicalPlan& plan) {
  for (plan::OperatorKind kind :
       {plan::OperatorKind::kPathStackJoin, plan::OperatorKind::kTwigStackJoin,
        plan::OperatorKind::kTJFastJoin,
        plan::OperatorKind::kBinaryStructuralJoin}) {
    if (int index = plan.FindOperator(kind); index >= 0) {
      return plan.ops[static_cast<size_t>(index)].estimated_cost;
    }
  }
  ADD_FAILURE() << "no join operator";
  return 0;
}

/// "tjfast cost=945.8", as ChoiceReason prints a priced join.
std::string PricedName(Algorithm algorithm, double cost) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), " cost=%.1f", cost);
  return std::string(AlgorithmName(algorithm)) + buffer;
}

/// kAuto's plan next to a forced plan of every join that can answer
/// `query`: the choice is the cheapest forced join, the first of
/// PathStack, TwigStack, TJFast on equal costs, and ChoiceReason prints
/// each candidate's cost, the chosen one first.
void ExpectCheapestJoin(const index::IndexedDocument& indexed,
                        std::string_view text) {
  TwigQuery query = Q(text);
  auto chosen = plan::Planner(indexed).Plan(query);
  ASSERT_TRUE(chosen.ok()) << text;
  ASSERT_FALSE(chosen->IsSchemaEmpty()) << text;
  const double chosen_cost = JoinOperatorCost(*chosen);
  EXPECT_EQ(plan::ChoiceReason(*chosen).rfind(
                "cheapest join: " + PricedName(chosen->algorithm, chosen_cost),
                0),
            0u)
      << text << ": " << plan::ChoiceReason(*chosen);
  for (Algorithm candidate :
       {Algorithm::kPathStack, Algorithm::kTwigStack, Algorithm::kTJFast}) {
    if (candidate == Algorithm::kPathStack && !query.IsPath()) continue;
    plan::PlannerHints hints;
    hints.algorithm = candidate;
    auto forced = plan::Planner(indexed).Plan(query, hints);
    ASSERT_TRUE(forced.ok()) << text;
    const double cost = JoinOperatorCost(*forced);
    EXPECT_NE(plan::ChoiceReason(*chosen).find(PricedName(candidate, cost)),
              std::string::npos)
        << text << ": " << plan::ChoiceReason(*chosen);
    if (candidate < chosen->algorithm) {
      EXPECT_GT(cost, chosen_cost) << text << " " << AlgorithmName(candidate);
    } else {
      EXPECT_GE(cost, chosen_cost) << text << " " << AlgorithmName(candidate);
    }
  }
}

TEST(PlannerCostTest, AutoIsTheCheapestPricedJoin) {
  auto bib = MustIndex(kBibXml);
  for (std::string_view text :
       {"//title", "//article/title", "//dblp//book//title",
        "//article[author]/title", R"(//article[year[="2012"]]/title)",
        "//book[chapter//title]/author"}) {
    ExpectCheapestJoin(bib, text);
  }
  for (int num_a : {30, 40, 41, 200}) {
    ExpectCheapestJoin(ThreeStreamDoc(num_a), "//a[b][c]");
  }
}

TEST(PlannerCostTest, PathsWithoutPredicatesPlanPathStack) {
  // PathStack and TwigStack read the same rows on a path, PathStack
  // more cheaply; TJFast would decode every leaf label.
  auto indexed = MustIndex(kBibXml);
  for (std::string_view text :
       {"//title", "//article/title", "//dblp//book//title"}) {
    auto plan = plan::Planner(indexed).Plan(Q(text));
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->algorithm, Algorithm::kPathStack) << text;
  }
}

TEST(PlannerCostTest, DeepLeavesPlanTwigStack) {
  // TJFast pays per DataGuide level of the leaf it decodes: the same
  // //a[b][c] streams plan TJFast near the root and TwigStack eight
  // levels down.
  std::string shallow = "<r>";
  std::string deep = "<r><x><x><x><x><x><x>";
  for (int i = 0; i < 30; ++i) {
    shallow += "<a><b/><c/></a>";
    deep += "<a><b/><c/></a>";
  }
  shallow += "</r>";
  deep += "</x></x></x></x></x></x></r>";
  auto near_root = plan::Planner(MustIndex(shallow)).Plan(Q("//a[b][c]"));
  auto far_down = plan::Planner(MustIndex(deep)).Plan(Q("//a[b][c]"));
  ASSERT_TRUE(near_root.ok());
  ASSERT_TRUE(far_down.ok());
  EXPECT_EQ(near_root->algorithm, Algorithm::kTJFast);
  EXPECT_EQ(far_down->algorithm, Algorithm::kTwigStack);
}

TEST(PlannerCostTest, EmptyStreamsTieInTheFixedOrder) {
  // No tag of these queries occurs: every candidate costs 0, and the
  // first of PathStack, TwigStack, TJFast wins.
  auto indexed = MustIndex(kBibXml);
  auto path = plan::Planner(indexed).Plan(Q("//x//y"));
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->algorithm, Algorithm::kPathStack);
  EXPECT_EQ(plan::ChoiceReason(*path),
            "cheapest join: pathstack cost=0.0 vs twigstack cost=0.0, "
            "tjfast cost=0.0");
  auto twig = plan::Planner(indexed).Plan(Q("//x[y]/z"));
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(twig->algorithm, Algorithm::kTwigStack);
  EXPECT_EQ(plan::ChoiceReason(*twig),
            "cheapest join: twigstack cost=0.0 vs tjfast cost=0.0");
}

TEST(PlannerCostTest, SelectiveGeneratedTwigsPlanTJFast) {
  // E8's twigs whose fastest join is TJFast: it reads the selective leaf
  // first and the other leaf only under the articles or persons that
  // leaf binds.
  index::IndexedDocument dblp(datagen::GenerateDblpWithApproxNodes(21, 20000));
  index::IndexedDocument xmark(
      datagen::GenerateXmarkWithApproxNodes(21, 20000));
  for (const auto& [indexed, text] :
       {std::pair<const index::IndexedDocument*, std::string_view>{
            &dblp, R"(//article[year[="2001"]]/title)"},
        {&xmark, "//person[profile/interest]/name"}}) {
    auto plan = plan::Planner(*indexed).Plan(Q(text));
    ASSERT_TRUE(plan.ok()) << text;
    EXPECT_EQ(plan->algorithm, Algorithm::kTJFast) << text;
    const int join = plan->FindOperator(plan::OperatorKind::kTJFastJoin);
    ASSERT_GE(join, 0) << text;
    EXPECT_EQ(plan::ChoiceReason(*plan).rfind(
                  "cheapest join: " +
                      PricedName(Algorithm::kTJFast,
                                 plan->ops[static_cast<size_t>(join)]
                                     .estimated_cost) +
                      " vs twigstack cost=",
                  0),
              0u)
        << text << ": " << plan::ChoiceReason(*plan);
    ExpectCheapestJoin(*indexed, text);
  }
}

// ------------------------------------------------------- plan shapes

int CountOperators(const plan::PhysicalPlan& plan, plan::OperatorKind kind) {
  int count = 0;
  for (const plan::OperatorNode& op : plan.ops) {
    if (op.kind == kind) ++count;
  }
  return count;
}

TEST(PlannerTest, TJFastScansLeafStreamsOnly) {
  auto indexed = ThreeStreamDoc(/*num_a=*/41);
  plan::PlannerHints hints;
  hints.algorithm = Algorithm::kTJFast;
  auto plan = plan::Planner(indexed).Plan(Q("//a[b][c]"), hints);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->algorithm, Algorithm::kTJFast);
  // //a[b][c] has two leaves (b, c); the internal node a has no scan.
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kStreamScan), 2);
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kTJFastJoin), 1);
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kMergeExpand), 1);
}

TEST(PlannerTest, TwigStackScansEveryQueryNode) {
  auto indexed = ThreeStreamDoc(/*num_a=*/40);
  plan::PlannerHints hints;
  hints.algorithm = Algorithm::kTwigStack;
  auto plan = plan::Planner(indexed).Plan(Q("//a[b][c]"), hints);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->algorithm, Algorithm::kTwigStack);
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kStreamScan), 3);
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kTwigStackJoin), 1);
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kMergeExpand), 1);
}

TEST(PlannerTest, ForcedAlgorithmIsHonored) {
  auto indexed = MustIndex(kBibXml);
  plan::PlannerHints hints;
  hints.algorithm = Algorithm::kStructuralJoin;
  auto plan = plan::Planner(indexed).Plan(Q("//article[author]/title"), hints);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, Algorithm::kStructuralJoin);
  EXPECT_EQ(plan::ChoiceReason(*plan), "forced by caller hint");
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kBinaryStructuralJoin),
            1);
  // No holistic phase-2 for the binary join.
  EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kMergeExpand), 0);
}

TEST(PlannerTest, OrderedQueryPlansAnOrderFilter) {
  // The binary structural joins cannot prune during their join: an
  // ordered query's matches are filtered after it.
  auto indexed = MustIndex(kBibXml);
  for (Algorithm algorithm :
       {Algorithm::kStructuralJoin, Algorithm::kStructuralJoinReordered}) {
    plan::PlannerHints hints;
    hints.algorithm = algorithm;
    auto plan = plan::Planner(indexed).Plan(
        Q("//article[ordered][author][title]"), hints);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kOrderFilter), 1)
        << AlgorithmName(algorithm);
  }
}

TEST(PlannerTest, HolisticJoinsPruneOrderInTheMerge) {
  auto indexed = MustIndex(kBibXml);
  for (Algorithm algorithm : {Algorithm::kTwigStack, Algorithm::kTJFast}) {
    plan::PlannerHints hints;
    hints.algorithm = algorithm;
    auto plan = plan::Planner(indexed).Plan(
        Q("//article[ordered][author][title]"), hints);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kOrderFilter), 0)
        << AlgorithmName(algorithm);
    const int merge = plan->FindOperator(plan::OperatorKind::kMergeExpand);
    ASSERT_GE(merge, 0);
    EXPECT_EQ(plan->ops[static_cast<size_t>(merge)].detail,
              "ordered merge; order pruning");
  }
}

TEST(PlannerTest, UnorderedQueryHasNoOrderFilter) {
  auto indexed = MustIndex(kBibXml);
  for (Algorithm algorithm : kAllAlgorithms) {
    if (algorithm == Algorithm::kPathStack) continue;
    plan::PlannerHints hints;
    hints.algorithm = algorithm;
    auto plan =
        plan::Planner(indexed).Plan(Q("//article[author]/title"), hints);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(CountOperators(*plan, plan::OperatorKind::kOrderFilter), 0)
        << AlgorithmName(algorithm);
  }
}

TEST(PlannerTest, EveryPlanEndsInOutputSort) {
  auto indexed = MustIndex(kBibXml);
  for (std::string_view text :
       {"//title", "//article[author]/title", "//book[chapter//title]/year"}) {
    auto plan = plan::Planner(indexed).Plan(Q(text));
    ASSERT_TRUE(plan.ok()) << text;
    ASSERT_FALSE(plan->ops.empty());
    EXPECT_EQ(plan->ops.back().kind, plan::OperatorKind::kOutputSort) << text;
    // Children always precede parents; the root is the last operator.
    for (size_t i = 0; i < plan->ops.size(); ++i) {
      for (int child : plan->ops[i].children) {
        EXPECT_LT(child, static_cast<int>(i)) << text;
      }
    }
  }
}

TEST(PlannerTest, EstimatesArePopulated) {
  auto indexed = MustIndex(kBibXml);
  auto plan = plan::Planner(indexed).Plan(Q("//article[author]/title"));
  ASSERT_TRUE(plan.ok());
  for (const plan::OperatorNode& op : plan->ops) {
    EXPECT_GE(op.estimated_rows, 0.0);
    EXPECT_GE(op.estimated_cost, 0.0);
  }
  int scan = plan->FindOperator(plan::OperatorKind::kStreamScan);
  ASSERT_GE(scan, 0);
  EXPECT_GT(plan->ops[static_cast<size_t>(scan)].estimated_rows, 0.0);
}

TEST(PlannerTest, InvalidQueryFailsToPlan) {
  auto indexed = MustIndex(kBibXml);
  TwigQuery empty;
  EXPECT_FALSE(plan::Planner(indexed).Plan(empty).ok());
}

// --------------------------------------------------- plan equivalence

/// Every physical plan the planner can emit must return exactly the
/// brute-force match set — the refactor-safety property that lets
/// Evaluate() delegate to the planner.
class PlanEquivalenceTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PlanEquivalenceTest, AllPlansReturnTheOracleMatchSet) {
  const std::vector<std::string> corpora = {std::string(kBibXml),
                                            std::string(kNestedXml)};
  const std::vector<std::vector<std::string>> suites = {
      {"//author", "//article/title", "//book//title",
       "//article[author]/title", "//article[author][year]/title",
       R"(//article[year[="2012"]]/title)", "//book[chapter//title]/year",
       "//article/@key", "//*/title", "//nonexistent",
       "//article[ordered][author][title]",
       "//article[ordered][title][author]"},
      {"//s//t", "//s/s/t", "//s[t]//u", "//s[//t][//u]", "//r[t]//s[t]"}};

  for (size_t c = 0; c < corpora.size(); ++c) {
    auto indexed = MustIndex(corpora[c]);
    for (const std::string& text : suites[c]) {
      TwigQuery query = Q(text);
      if (GetParam() == Algorithm::kPathStack && !query.IsPath()) continue;
      std::vector<Match> expected = BruteForceMatches(indexed, query);
      plan::PlannerHints hints;
      hints.algorithm = GetParam();
      auto plan = plan::Planner(indexed).Plan(query, hints);
      ASSERT_TRUE(plan.ok()) << text;
      auto result = plan::ExecutePlan(indexed, &*plan);
      ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
      EXPECT_EQ(result->matches, expected)
          << "query=" << text << " algorithm=" << AlgorithmName(GetParam());
    }
  }
}

TEST_P(PlanEquivalenceTest, PlanExecutionMatchesEvaluate) {
  // Evaluate() is a shim over the planner, but pin the equivalence
  // end-to-end anyway: same matches, same headline counters.
  auto indexed = MustIndex(kBibXml);
  for (std::string_view text :
       {"//article[author]/title", "//book//title",
        "//article[ordered][author][title]"}) {
    TwigQuery query = Q(text);
    if (GetParam() == Algorithm::kPathStack && !query.IsPath()) continue;
    EvalOptions options;
    options.algorithm = GetParam();
    auto via_evaluate = Evaluate(indexed, query, options);
    ASSERT_TRUE(via_evaluate.ok()) << text;

    auto plan = plan::Planner(indexed).Plan(query, plan::PlannerHints{options});
    ASSERT_TRUE(plan.ok()) << text;
    auto via_plan = plan::ExecutePlan(indexed, &*plan);
    ASSERT_TRUE(via_plan.ok()) << text;

    EXPECT_EQ(via_plan->matches, via_evaluate->matches) << text;
    EXPECT_EQ(via_plan->stats.candidates_scanned,
              via_evaluate->stats.candidates_scanned)
        << text;
    EXPECT_EQ(via_plan->stats.matches, via_evaluate->stats.matches) << text;
  }
}

TEST_P(PlanEquivalenceTest, CompressedMultiBlockCorpusMatchesOracle) {
  // A generated corpus large enough that every frequent tag stream spans
  // multiple posting blocks (>128 entries), so cursor seeks actually
  // skip blocks: the sweep pins every join on the block-compressed index
  // against the brute-force oracle.
  index::IndexedDocument indexed(
      datagen::GenerateDblpWithApproxNodes(41, 5000));
  ASSERT_GT(
      indexed.tag_streams().blocks(indexed.document().FindTag("author"))
          .num_blocks(),
      1u);
  for (std::string_view text :
       {"//article/author", "//article[year]/title",
        "//inproceedings[author][title]/year", "//article[ordered][author][title]",
        "//*[author]/title"}) {
    TwigQuery query = Q(text);
    if (GetParam() == Algorithm::kPathStack && !query.IsPath()) continue;
    std::vector<Match> expected = BruteForceMatches(indexed, query);
    plan::PlannerHints hints;
    hints.algorithm = GetParam();
    auto plan = plan::Planner(indexed).Plan(query, hints);
    ASSERT_TRUE(plan.ok()) << text;
    auto result = plan::ExecutePlan(indexed, &*plan);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    EXPECT_EQ(result->matches, expected)
        << "query=" << text << " algorithm=" << AlgorithmName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PlanEquivalenceTest,
    ::testing::Values(Algorithm::kAuto, Algorithm::kStructuralJoin,
                      Algorithm::kPathStack, Algorithm::kTwigStack,
                      Algorithm::kTJFast, Algorithm::kStructuralJoinReordered),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return lotusx::testing::ParamName(info.param);
    });

// ------------------------------------------------------------ EXPLAIN

TEST(ExplainPlanTest, PathQueryRendersEstimatesAndActuals) {
  auto indexed = MustIndex(kBibXml);
  auto text = plan::ExplainQuery(indexed, Q("//article/title"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("pathstack"), std::string::npos) << *text;
  EXPECT_NE(text->find("stream-scan"), std::string::npos) << *text;
  EXPECT_NE(text->find("est rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("estimated matches"), std::string::npos) << *text;
}

TEST(ExplainPlanTest, TwigQueryRendersTheOperatorTree) {
  auto indexed = MustIndex(kBibXml);
  auto text = plan::ExplainQuery(indexed, Q("//article[author][year]/title"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("output-sort"), std::string::npos) << *text;
  EXPECT_NE(text->find("merge-expand"), std::string::npos) << *text;
  EXPECT_NE(text->find("stream-scan"), std::string::npos) << *text;
  EXPECT_NE(text->find("est rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows="), std::string::npos) << *text;
}

TEST(ExplainPlanTest, OrderSensitiveQueryShowsTheOrderFilter) {
  // The binary join's plan filters order; a holistic plan prunes it in
  // its merge and has no filter.
  auto indexed = MustIndex(kBibXml);
  EvalOptions binary;
  binary.algorithm = Algorithm::kStructuralJoin;
  auto text = plan::ExplainQuery(
      indexed, Q("//article[ordered][author][title]"), binary);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("order-filter"), std::string::npos) << *text;
  EXPECT_NE(text->find("actual rows="), std::string::npos) << *text;

  EvalOptions holistic;
  holistic.algorithm = Algorithm::kTwigStack;
  text = plan::ExplainQuery(indexed, Q("//article[ordered][author][title]"),
                            holistic);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->find("order-filter"), std::string::npos) << *text;
  EXPECT_NE(text->find("order pruning"), std::string::npos) << *text;
}

TEST(ExplainPlanTest, DescribeWithoutActualsOmitsThem) {
  auto indexed = MustIndex(kBibXml);
  auto plan = plan::Planner(indexed).Plan(Q("//article[author]/title"));
  ASSERT_TRUE(plan.ok());
  std::string text = plan::DescribePlan(*plan, /*include_actuals=*/false);
  EXPECT_NE(text.find("est rows="), std::string::npos) << text;
  EXPECT_EQ(text.find("actual rows="), std::string::npos) << text;
}

TEST(ExplainTest, RejectsInvalidQuery) {
  auto indexed = MustIndex(kBibXml);
  TwigQuery empty;
  EXPECT_FALSE(plan::ExplainQuery(indexed, empty).ok());
}

// ------------------------------------------------- schema-empty plans


bool HasUnboundNode(const index::IndexedDocument& indexed,
                    const TwigQuery& query) {
  std::vector<std::vector<index::PathId>> bindings =
      SchemaBindings(indexed, query);
  return std::any_of(bindings.begin(), bindings.end(),
                     [](const auto& paths) { return paths.empty(); });
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

/// A random element of `document` whose tag satisfies `keep`, or the
/// document root when none is found in a few hundred draws.
template <typename Keep>
xml::NodeId RandomNode(const xml::Document& document, Random& random,
                       Keep&& keep) {
  for (int attempt = 0; attempt < 400; ++attempt) {
    auto id = static_cast<xml::NodeId>(
        random.NextBounded(static_cast<uint64_t>(document.num_nodes())));
    if (document.node(id).kind != xml::NodeKind::kText && keep(id)) {
      return id;
    }
  }
  return document.root();
}

/// One of the mistakes servebench's relax_rewrite workload makes, applied
/// to `query`: a misspelled tag, a flipped '/' vs '//' axis, a branch the
/// parent may never have, a '=' or '~' predicate (empty literal
/// included) on a node whose paths may carry no text, an attribute leaf,
/// a `*` node, or a '/'-anchored root.
void AddMistake(const xml::Document& document, Random& random,
                TwigQuery* query) {
  const auto node =
      static_cast<QueryNodeId>(random.NextBounded(
          static_cast<uint64_t>(query->size())));
  const std::string tag = query->node(node).tag;
  const bool plain_element = tag != "*" && tag[0] != '@';
  switch (random.NextBounded(7)) {
    case 0:  // misspelled tag
      if (plain_element) {
        std::string typo = tag;
        if (typo.size() >= 2 && random.NextBool(0.5)) {
          std::swap(typo[0], typo[1]);
        } else {
          typo += "x";
        }
        query->SetTag(node, typo);
      }
      break;
    case 1:  // wrong axis
      if (node != query->root()) {
        query->SetIncomingAxis(node,
                               query->node(node).incoming_axis == Axis::kChild
                                   ? Axis::kDescendant
                                   : Axis::kChild);
      }
      break;
    case 2: {  // a branch the parent may never have
      if (tag[0] == '@') break;
      xml::NodeId other = RandomNode(document, random, [&](xml::NodeId id) {
        return document.node(id).kind == xml::NodeKind::kElement;
      });
      query->AddChild(node, random.NextBool(0.5) ? Axis::kChild
                                                 : Axis::kDescendant,
                      document.TagName(other));
      break;
    }
    case 3: {  // '=' / '~' on a node whose paths may have no text
      if (query->node(node).predicate.active()) break;
      xml::NodeId source = RandomNode(document, random, [&](xml::NodeId id) {
        return document.node(id).kind == xml::NodeKind::kElement &&
               !document.ContentString(id).empty();
      });
      ValuePredicate predicate;
      std::vector<std::string> tokens =
          TokenizeKeywords(document.ContentString(source));
      switch (random.NextBounded(3)) {
        case 0:
          predicate.op = ValuePredicate::Op::kContains;
          predicate.text = tokens.empty()
                               ? "zzz"
                               : tokens[random.NextBounded(tokens.size())];
          break;
        case 1:
          predicate.op = ValuePredicate::Op::kEquals;
          predicate.text = document.ContentString(source);
          break;
        default:
          predicate.op = ValuePredicate::Op::kEquals;
          predicate.text = "";
          break;
      }
      if (tag == "*" && predicate.op == ValuePredicate::Op::kEquals) break;
      query->SetPredicate(node, predicate);
      break;
    }
    case 4: {  // attribute leaf
      if (tag[0] == '@') break;
      xml::NodeId attribute = RandomNode(document, random, [&](xml::NodeId id) {
        return document.node(id).kind == xml::NodeKind::kAttribute;
      });
      if (document.node(attribute).kind != xml::NodeKind::kAttribute) break;
      query->AddChild(node, Axis::kChild, document.TagName(attribute));
      break;
    }
    case 5:  // `*` node
      if (plain_element &&
          query->node(node).predicate.op != ValuePredicate::Op::kEquals) {
        query->SetTag(node, "*");
      }
      break;
    default:  // '/'-anchored root
      query->set_root_axis(Axis::kChild);
      if (random.NextBool(0.5)) {
        query->SetTag(query->root(),
                      document.TagName(document.root()));
      }
      break;
  }
}

/// Random twig grown from one embedding in `indexed` — a root element
/// and two to four nodes hung one or two levels below bound nodes
/// ('/' for a direct child, '//' otherwise) — with zero to two
/// relax_rewrite mistakes on top.
TwigQuery RandomMistakenTwig(const index::IndexedDocument& indexed,
                             Random& random) {
  const xml::Document& document = indexed.document();
  xml::NodeId root = RandomNode(document, random, [&](xml::NodeId id) {
    return !ElementChildren(document, id).empty();
  });
  TwigQuery query;
  query.AddRoot(document.TagName(root));
  std::vector<xml::NodeId> bound = {root};
  const uint64_t extra = 2 + random.NextBounded(3);
  for (uint64_t i = 0; i < extra; ++i) {
    const auto parent =
        static_cast<QueryNodeId>(random.NextBounded(bound.size()));
    xml::NodeId element = bound[static_cast<size_t>(parent)];
    const uint64_t depth = 1 + random.NextBounded(2);
    for (uint64_t d = 0; d < depth; ++d) {
      std::vector<xml::NodeId> children = ElementChildren(document, element);
      if (children.empty()) break;
      element = children[random.NextBounded(children.size())];
    }
    if (element == bound[static_cast<size_t>(parent)]) continue;
    const bool direct =
        document.node(element).parent == bound[static_cast<size_t>(parent)];
    query.AddChild(parent, direct ? Axis::kChild : Axis::kDescendant,
                   document.TagName(element));
    bound.push_back(element);
  }
  for (uint64_t m = random.NextBounded(3); m > 0; --m) {
    AddMistake(document, random, &query);
  }
  return query;
}

TEST(SchemaEmptyPlanTest, RandomMistakenTwigsMatchTheOracle) {
  const index::IndexedDocument corpora[] = {
      index::IndexedDocument(datagen::GenerateDblpWithApproxNodes(3, 2500)),
      index::IndexedDocument(datagen::GenerateXmarkWithApproxNodes(5, 2500)),
      index::IndexedDocument(
          datagen::GenerateTreebankWithApproxNodes(7, 2500)),
  };
  for (const index::IndexedDocument& indexed : corpora) {
    Random random(23);
    int schema_empty = 0;
    int answered = 0;
    for (int i = 0; i < 60; ++i) {
      TwigQuery query = RandomMistakenTwig(indexed, random);
      if (!query.Validate().ok()) continue;
      SCOPED_TRACE(query.ToString());
      const bool unbound = HasUnboundNode(indexed, query);
      const std::vector<Match> expected = BruteForceMatches(indexed, query);
      // Completeness: an unbound node proves the answer empty.
      if (unbound) {
        EXPECT_TRUE(expected.empty());
      }
      schema_empty += unbound ? 1 : 0;
      answered += expected.empty() ? 0 : 1;
      for (Algorithm algorithm : kAllAlgorithms) {
        plan::PlannerHints hints;
        hints.algorithm = algorithm;
        auto plan = plan::Planner(indexed).Plan(query, hints);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        auto result = plan::ExecutePlan(indexed, &*plan);
        if (algorithm == Algorithm::kPathStack && !query.IsPath()) {
          EXPECT_FALSE(plan->IsSchemaEmpty());
          EXPECT_FALSE(result.ok());
          continue;
        }
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(plan->IsSchemaEmpty(), unbound) << AlgorithmName(algorithm);
        EXPECT_EQ(result->matches, expected) << AlgorithmName(algorithm);
        if (unbound) {
          EXPECT_EQ(result->stats.candidates_scanned, 0u);
          EXPECT_EQ(result->stats.posting_blocks_decoded, 0u);
          EXPECT_EQ(result->stats.intermediate_tuples, 0u);
          EXPECT_EQ(result->stats.estimated_matches, 0.0);
        }
      }
    }
    EXPECT_GE(schema_empty, 10);
    EXPECT_GE(answered, 10);
  }
}

/// The stats.algorithm string of `algorithm`'s own join on `query`.
std::string JoinReportedName(const index::IndexedDocument& indexed,
                             const TwigQuery& query, Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kStructuralJoin:
    case Algorithm::kStructuralJoinReordered:
      return StructuralJoinEvaluate(
                 indexed, query,
                 algorithm == Algorithm::kStructuralJoinReordered)
          .stats.algorithm;
    case Algorithm::kPathStack:
      return PathStackEvaluate(indexed, query)->stats.algorithm;
    case Algorithm::kTwigStack:
      return TwigStackEvaluate(indexed, query).stats.algorithm;
    case Algorithm::kTJFast:
      return TjFastEvaluate(indexed, query).stats.algorithm;
    case Algorithm::kAuto:
      return JoinReportedName(indexed, query,
                              plan::Planner(indexed).Plan(query)->algorithm);
  }
  return "";
}

TEST(SchemaEmptyPlanTest, StatsNameTheJoinThePlanResolved) {
  auto indexed = MustIndex(kBibXml);
  for (std::string_view text : {"//article[author]/titel", "//article/titel",
                                "//book/article//title"}) {
    TwigQuery query = Q(text);
    ASSERT_TRUE(HasUnboundNode(indexed, query)) << text;
    for (Algorithm algorithm : kAllAlgorithms) {
      if (algorithm == Algorithm::kPathStack && !query.IsPath()) continue;
      EvalOptions options;
      options.algorithm = algorithm;
      auto result = Evaluate(indexed, query, options);
      ASSERT_TRUE(result.ok()) << text;
      EXPECT_TRUE(result->matches.empty()) << text;
      EXPECT_EQ(result->stats.algorithm,
                JoinReportedName(indexed, query, algorithm))
          << text << " " << AlgorithmName(algorithm);
    }
  }
}

TEST(SchemaEmptyPlanTest, ChoiceIsResolvedAsForAnyPlan) {
  auto indexed = MustIndex(kBibXml);
  auto plan = plan::Planner(indexed).Plan(Q("//article[author]/titel"));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->IsSchemaEmpty());
  EXPECT_NE(plan->algorithm, Algorithm::kAuto);
  EXPECT_EQ(plan::ChoiceReason(*plan).rfind(
                "cheapest join: " + std::string(AlgorithmName(plan->algorithm)),
                0),
            0u)
      << plan::ChoiceReason(*plan);
  EXPECT_EQ(plan->ops[0].query_node, 2);
  EXPECT_EQ(plan->ops[0].detail, "node 2 <titel> has no DataGuide position");
  EXPECT_EQ(plan->ops[0].estimated_rows, 0.0);
}

TEST(SchemaEmptyPlanTest, ForcedPathStackOnATwigStillFails) {
  auto indexed = MustIndex(kBibXml);
  EvalOptions options;
  options.algorithm = Algorithm::kPathStack;
  auto bound = Evaluate(indexed, Q("//article[author]/title"), options);
  auto unbound = Evaluate(indexed, Q("//article[author]/titel"), options);
  ASSERT_FALSE(bound.ok());
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().ToString(), bound.status().ToString());
}

TEST(SchemaEmptyPlanTest, ExplainShowsTheOperator) {
  auto indexed = MustIndex(kBibXml);
  auto text = plan::ExplainQuery(indexed, Q("//article[author]/titel"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("-> schema-empty [node 2 <titel> has no DataGuide "
                       "position]"),
            std::string::npos)
      << *text;
  EXPECT_EQ(text->find("stream-scan"), std::string::npos) << *text;
  EXPECT_NE(text->find("actual matches: 0"), std::string::npos) << *text;
  EXPECT_NE(text->find("totals: scanned 0, intermediate 0"),
            std::string::npos)
      << *text;
}

TEST(SchemaEmptyPlanTest, OperatorCounterIncrements) {
  ASSERT_TRUE(metrics::Enabled());
  auto indexed = MustIndex(kBibXml);
  metrics::Counter* execs = metrics::Registry::Default().GetCounter(
      "lotusx_plan_operator_execs_total", {{"op", "schema-empty"}});
  const uint64_t before = execs->value();
  ASSERT_TRUE(Evaluate(indexed, Q("//article[author]/titel")).ok());
  EXPECT_EQ(execs->value(), before + 1);
  ASSERT_TRUE(Evaluate(indexed, Q("//article[author]/title")).ok());
  EXPECT_EQ(execs->value(), before + 1);
}

}  // namespace
}  // namespace lotusx::twig
