// Property-based tests: randomized documents and queries, checked against
// reference implementations (the brute-force oracle, re-parsing, byte
// equality). Parameterized over seeds so each instance is an independent
// ctest case.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/evaluator.h"
#include "twig/query_export.h"
#include "twig/query_parser.h"
#include "twig/schema_match.h"
#include "twig/selectivity.h"
#include "xml/dom_builder.h"
#include "xml/writer.h"

namespace lotusx {
namespace {

using testing::BruteForceMatches;

/// Small random document: a mix of the three generators at oracle-friendly
/// sizes (the brute-force oracle is exponential in query size).
xml::Document SmallRandomDocument(uint64_t seed) {
  switch (seed % 4) {
    case 0: {
      datagen::DblpOptions options;
      options.seed = seed;
      options.num_publications = 12;
      return datagen::GenerateDblp(options);
    }
    case 1: {
      datagen::StoreOptions options;
      options.seed = seed;
      options.num_products = 10;
      return datagen::GenerateStore(options);
    }
    case 2: {
      datagen::XmarkOptions options;
      options.seed = seed;
      options.num_items = 5;
      options.num_people = 3;
      options.num_auctions = 3;
      return datagen::GenerateXmark(options);
    }
    default: {
      datagen::TreebankOptions options;
      options.seed = seed;
      options.num_sentences = 8;
      return datagen::GenerateTreebank(options);
    }
  }
}

/// Random twig query over `indexed`: grown from a random element's real
/// tag path (so most queries are satisfiable), with random axes, up to
/// two branches, occasional wildcards, value predicates drawn from real
/// document terms, and occasional order constraints.
twig::TwigQuery RandomQuery(Random& random,
                            const index::IndexedDocument& indexed) {
  const xml::Document& document = indexed.document();
  // Random element.
  xml::NodeId element;
  do {
    element = static_cast<xml::NodeId>(
        random.NextBounded(static_cast<uint64_t>(document.num_nodes())));
  } while (document.node(element).kind == xml::NodeKind::kText);
  // Its tag path.
  std::vector<std::string> tag_path;
  for (xml::NodeId walk = element; walk != xml::kInvalidNodeId;
       walk = document.node(walk).parent) {
    tag_path.emplace_back(document.TagName(walk));
  }
  std::reverse(tag_path.begin(), tag_path.end());
  // Spine = random suffix (length 1..3) of the path.
  size_t spine_len = 1 + random.NextBounded(std::min<size_t>(
                             3, tag_path.size()));
  size_t start = tag_path.size() - spine_len;

  twig::TwigQuery query;
  twig::QueryNodeId node = query.AddRoot(
      tag_path[start],
      random.NextBool(0.8) ? twig::Axis::kDescendant : twig::Axis::kChild);
  std::vector<twig::QueryNodeId> spine = {node};
  for (size_t i = start + 1; i < tag_path.size(); ++i) {
    twig::Axis axis = random.NextBool(0.6) ? twig::Axis::kChild
                                           : twig::Axis::kDescendant;
    std::string tag =
        random.NextBool(0.1) ? std::string("*") : tag_path[i];
    node = query.AddChild(node, axis, tag);
    spine.push_back(node);
  }
  // Branches: random descendant tags of a random spine node's positions.
  const index::DataGuide& guide = indexed.dataguide();
  int branches = static_cast<int>(random.NextBounded(3));
  for (int b = 0; b < branches; ++b) {
    twig::QueryNodeId anchor =
        spine[random.NextBounded(spine.size())];
    xml::TagId anchor_tag = document.FindTag(query.node(anchor).tag);
    const std::vector<index::PathId>& paths = guide.PathsWithTag(anchor_tag);
    if (paths.empty()) continue;
    index::PathId path = paths[random.NextBounded(paths.size())];
    const std::vector<xml::TagId>& descendants = guide.DescendantTags(path);
    if (descendants.empty()) continue;
    xml::TagId tag = descendants[random.NextBounded(descendants.size())];
    query.AddChild(anchor,
                   random.NextBool(0.5) ? twig::Axis::kChild
                                        : twig::Axis::kDescendant,
                   document.tag_name(tag));
  }
  // Value predicate on a random leaf, drawn from real terms half the time.
  if (random.NextBool(0.4)) {
    std::vector<twig::QueryNodeId> leaves = query.Leaves();
    twig::QueryNodeId leaf = leaves[random.NextBounded(leaves.size())];
    if (query.node(leaf).tag != "*") {
      twig::ValuePredicate predicate;
      predicate.op = random.NextBool(0.5)
                         ? twig::ValuePredicate::Op::kContains
                         : twig::ValuePredicate::Op::kEquals;
      xml::TagId tag = document.FindTag(query.node(leaf).tag);
      const index::Trie* trie = indexed.terms().term_trie_for_tag(tag);
      if (trie != nullptr && random.NextBool(0.7)) {
        auto terms = trie->Complete("", 5);
        predicate.text = terms[random.NextBounded(terms.size())].key;
      } else {
        predicate.text = random.NextWord(2, 6);
      }
      query.SetPredicate(leaf, predicate);
    }
  }
  // Order constraint occasionally.
  if (random.NextBool(0.25)) {
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      if (query.node(q).children.size() >= 2) {
        query.SetOrdered(q, true);
        break;
      }
    }
  }
  // Random output node.
  query.SetOutput(static_cast<twig::QueryNodeId>(
      random.NextBounded(static_cast<uint64_t>(query.size()))));
  return query;
}

std::string QueryDebug(const twig::TwigQuery& query) {
  std::string out;
  for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
    const twig::QueryNode& node = query.node(q);
    out += std::to_string(q) + ":" + node.tag + " p=" +
           std::to_string(node.parent) +
           (node.incoming_axis == twig::Axis::kChild ? " /" : " //") +
           " out=" + std::to_string(node.is_output) +
           " ord=" + std::to_string(node.ordered) + " pred=" +
           std::to_string(static_cast<int>(node.predicate.op)) + ":" +
           node.predicate.text + "; ";
  }
  return out;
}

/// SchemaBindings' completeness on `matches`, the oracle's answer to
/// `query`: every match binds each query node at one of that node's
/// DataGuide positions. Schema-empty plans answer nothing on the strength
/// of it (DESIGN.md "Schema-empty means empty").
void ExpectBindingsCoverMatches(const index::IndexedDocument& indexed,
                                const twig::TwigQuery& query,
                                const std::vector<twig::Match>& matches) {
  const std::vector<std::vector<index::PathId>> positions =
      twig::SchemaBindings(indexed, query);
  for (const twig::Match& match : matches) {
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      const std::vector<index::PathId>& paths =
          positions[static_cast<size_t>(q)];
      const xml::NodeId bound = match.bindings[static_cast<size_t>(q)];
      ASSERT_TRUE(std::binary_search(paths.begin(), paths.end(),
                                     indexed.dataguide().PathOf(bound)))
          << "query " << query.ToString() << " node " << q << " binds <"
          << indexed.document().TagName(bound) << "> id " << bound
          << " outside its " << paths.size() << " DataGuide positions";
    }
  }
}

class RandomizedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedSweep, AllAlgorithmsMatchOracle) {
  uint64_t seed = GetParam();
  Random random(seed * 7919 + 13);
  index::IndexedDocument indexed(SmallRandomDocument(seed));
  for (int i = 0; i < 25; ++i) {
    twig::TwigQuery query = RandomQuery(random, indexed);
    ASSERT_TRUE(query.Validate().ok()) << query.ToString();
    std::vector<twig::Match> expected = BruteForceMatches(indexed, query);
    for (twig::Algorithm algorithm :
         {twig::Algorithm::kStructuralJoin, twig::Algorithm::kTwigStack,
          twig::Algorithm::kTJFast, twig::Algorithm::kAuto}) {
      twig::EvalOptions options;
      options.algorithm = algorithm;
      auto result = twig::Evaluate(indexed, query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->matches, expected)
          << "query " << query.ToString() << " algorithm "
          << AlgorithmName(algorithm) << " seed " << seed << " i=" << i;
    }
    if (query.IsPath()) {
      twig::EvalOptions options;
      options.algorithm = twig::Algorithm::kPathStack;
      auto result = twig::Evaluate(indexed, query, options);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->matches, expected) << query.ToString();
    }
    ExpectBindingsCoverMatches(indexed, query, expected);
    // Selectivity-based join reordering must never change answers.
    {
      twig::EvalOptions options;
      options.algorithm = twig::Algorithm::kStructuralJoinReordered;
      auto result = twig::Evaluate(indexed, query, options);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->matches, expected)
          << "join reordering changed answers for " << query.ToString();
    }
  }
}

TEST_P(RandomizedSweep, QueryToStringRoundTrips) {
  uint64_t seed = GetParam();
  Random random(seed * 104729 + 1);
  index::IndexedDocument indexed(SmallRandomDocument(seed));
  for (int i = 0; i < 40; ++i) {
    twig::TwigQuery query = RandomQuery(random, indexed);
    std::string rendered = query.ToString();
    auto reparsed = twig::ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok())
        << rendered << " -> " << reparsed.status().ToString();
    // Node ids may be renumbered (the parser builds branches depth-first,
    // RandomQuery builds the spine first), so equality is checked on the
    // canonical form and on semantics, not on the numbering.
    EXPECT_EQ(reparsed->ToString(), rendered)
        << "\noriginal: " << QueryDebug(query)
        << "\nreparsed: " << QueryDebug(*reparsed);
    auto a = twig::Evaluate(indexed, query);
    auto b = twig::Evaluate(indexed, *reparsed);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::vector<xml::NodeId> a_out = a->OutputNodes(query.output());
    std::vector<xml::NodeId> b_out = b->OutputNodes(reparsed->output());
    EXPECT_EQ(a_out, b_out) << rendered;
  }
}

TEST_P(RandomizedSweep, XPathExportPreservesOutputSemantics) {
  // Structural-only check: exporting and re-importing through our own
  // parser is impossible (XPath != twig syntax), but the export must at
  // least be non-empty and mention every tag of the query.
  uint64_t seed = GetParam();
  Random random(seed * 31 + 7);
  index::IndexedDocument indexed(SmallRandomDocument(seed));
  for (int i = 0; i < 20; ++i) {
    twig::TwigQuery query = RandomQuery(random, indexed);
    if (query.HasOrderConstraints()) continue;
    auto xpath = twig::ToXPath(query);
    ASSERT_TRUE(xpath.ok()) << query.ToString();
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      EXPECT_NE(xpath->find(query.node(q).tag), std::string::npos)
          << *xpath << " missing " << query.node(q).tag;
    }
    auto xquery = twig::ToXQuery(query);
    ASSERT_TRUE(xquery.ok());
    EXPECT_NE(xquery->find("return $n" + std::to_string(query.output())),
              std::string::npos);
  }
}

TEST_P(RandomizedSweep, WriterParserRoundTripIsFixpoint) {
  uint64_t seed = GetParam();
  xml::Document document = SmallRandomDocument(seed);
  std::string once = xml::WriteXml(document);
  auto reparsed = xml::ParseDocument(once);
  ASSERT_TRUE(reparsed.ok());
  std::string twice = xml::WriteXml(*reparsed);
  EXPECT_EQ(once, twice);
}

TEST_P(RandomizedSweep, PersistenceRoundTripPreservesQueries) {
  uint64_t seed = GetParam();
  Random random(seed + 5);
  index::IndexedDocument indexed(SmallRandomDocument(seed));
  std::string path = ::testing::TempDir() + "/lotusx_prop_" +
                     std::to_string(seed) + ".ltsx";
  ASSERT_TRUE(indexed.SaveTo(path).ok());
  auto loaded = index::IndexedDocument::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  for (int i = 0; i < 10; ++i) {
    twig::TwigQuery query = RandomQuery(random, indexed);
    auto a = twig::Evaluate(indexed, query);
    auto b = twig::Evaluate(*loaded, query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->matches, b->matches) << query.ToString();
  }
  std::remove(path.c_str());
}

TEST_P(RandomizedSweep, SelectivityNodeEstimatesAreSoundWithoutPredicates) {
  // Without value predicates, the schema-level node cardinality is exact:
  // it must equal the number of nodes at the feasible paths, an upper
  // bound on actual bindings.
  uint64_t seed = GetParam();
  Random random(seed * 3 + 1);
  index::IndexedDocument indexed(SmallRandomDocument(seed));
  for (int i = 0; i < 15; ++i) {
    twig::TwigQuery query = RandomQuery(random, indexed);
    bool has_predicate = false;
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      has_predicate |= query.node(q).predicate.active();
    }
    if (has_predicate) continue;
    twig::SelectivityEstimate estimate =
        twig::EstimateSelectivity(indexed, query);
    auto result = twig::Evaluate(indexed, query);
    ASSERT_TRUE(result.ok());
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      std::set<xml::NodeId> distinct;
      for (const twig::Match& match : result->matches) {
        distinct.insert(match.bindings[static_cast<size_t>(q)]);
      }
      EXPECT_GE(estimate.node_cardinality[static_cast<size_t>(q)] + 1e-9,
                static_cast<double>(distinct.size()))
          << query.ToString() << " node " << q;
    }
  }
}

// Completeness on the generated corpora the benches and servebench use,
// with a third of the twigs given an equality against the empty literal,
// which an element without direct text satisfies.
TEST(SchemaCompletenessTest, RandomTwigsBindAtSchemaPositions) {
  const index::IndexedDocument corpora[] = {
      index::IndexedDocument(datagen::GenerateDblpWithApproxNodes(3, 2000)),
      index::IndexedDocument(datagen::GenerateXmarkWithApproxNodes(5, 2000)),
      index::IndexedDocument(
          datagen::GenerateTreebankWithApproxNodes(7, 2000)),
  };
  for (const index::IndexedDocument& indexed : corpora) {
    Random random(41);
    size_t checked = 0;
    size_t empty_literal_matches = 0;
    for (int i = 0; i < 60; ++i) {
      twig::TwigQuery query = RandomQuery(random, indexed);
      const auto q = static_cast<twig::QueryNodeId>(
          random.NextBounded(static_cast<uint64_t>(query.size())));
      // A wildcard cannot carry an equality.
      const bool empty_literal =
          random.NextBool(0.33) && query.node(q).tag != "*";
      if (empty_literal) {
        query.SetPredicate(q, twig::ValuePredicate{
                                  twig::ValuePredicate::Op::kEquals, ""});
      }
      ASSERT_TRUE(query.Validate().ok()) << query.ToString();
      const std::vector<twig::Match> expected =
          BruteForceMatches(indexed, query);
      ExpectBindingsCoverMatches(indexed, query, expected);
      checked += expected.size();
      if (empty_literal) empty_literal_matches += expected.size();
    }
    EXPECT_GE(checked, 100u);
    EXPECT_GT(empty_literal_matches, 0u);
  }
}

TEST(SchemaCompletenessTest, EmptyLiteralBindsTextlessPaths) {
  index::IndexedDocument indexed(
      datagen::GenerateDblpWithApproxNodes(3, 2000));
  const twig::TwigQuery query = twig::ParseQuery(R"(//article[=""])").value();
  const std::vector<twig::Match> expected = BruteForceMatches(indexed, query);
  ASSERT_FALSE(expected.empty());
  ExpectBindingsCoverMatches(indexed, query, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace lotusx
