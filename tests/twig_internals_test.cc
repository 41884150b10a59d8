// Unit tests for the twig engine's internal building blocks: candidate
// generation, the path-solution merge, and the order filter. These are
// exercised indirectly by every algorithm test; here their individual
// contracts are pinned down.

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

#include "datagen/datagen.h"
#include "tests/test_util.h"
#include "twig/candidates.h"
#include "twig/evaluator.h"
#include "twig/order_filter.h"
#include "twig/path_merge.h"
#include "twig/query_parser.h"

namespace lotusx::twig {
namespace {

using lotusx::testing::MustIndex;
using xml::NodeId;

constexpr std::string_view kXml = R"(<r>
  <a k="v1"><b>one two</b><c>three</c></a>
  <a k="v2"><b>two</b></a>
  <a><b>one</b><b>two three</b></a>
</r>)";

TwigQuery Q(std::string_view text) {
  auto result = ParseQuery(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ------------------------------------------------------------- Candidates

TEST(CandidatesTest, TagStreamWithoutPredicate) {
  auto indexed = MustIndex(kXml);
  TwigQuery query = Q("//b");
  std::vector<NodeId> candidates = CandidatesFor(indexed, query, 0);
  EXPECT_EQ(candidates.size(), 4u);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
}

TEST(CandidatesTest, WildcardYieldsAllElements) {
  auto indexed = MustIndex(kXml);
  TwigQuery query = Q("//*");
  std::vector<NodeId> candidates = CandidatesFor(indexed, query, 0);
  int elements = 0;
  for (NodeId id = 0; id < indexed.document().num_nodes(); ++id) {
    if (indexed.document().node(id).kind == xml::NodeKind::kElement) {
      ++elements;
    }
  }
  EXPECT_EQ(candidates.size(), static_cast<size_t>(elements));
}

TEST(CandidatesTest, ContainsPredicateRequiresAllTokens) {
  auto indexed = MustIndex(kXml);
  TwigQuery query = Q(R"(//b[~"one two"])");
  std::vector<NodeId> candidates = CandidatesFor(indexed, query, 0);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(indexed.document().ContentString(candidates[0]), "one two");
}

TEST(CandidatesTest, EqualsPredicateIsExact) {
  auto indexed = MustIndex(kXml);
  EXPECT_EQ(CandidatesFor(indexed, Q(R"(//b[="two"])"), 0).size(), 1u);
  EXPECT_EQ(CandidatesFor(indexed, Q(R"(//b[="two "])"), 0).size(), 1u);
  EXPECT_EQ(CandidatesFor(indexed, Q(R"(//b[="tw"])"), 0).size(), 0u);
}

TEST(CandidatesTest, AttributePredicates) {
  auto indexed = MustIndex(kXml);
  EXPECT_EQ(CandidatesFor(indexed, Q(R"(//@k[="v1"])"), 0).size(), 1u);
  EXPECT_EQ(CandidatesFor(indexed, Q("//@k"), 0).size(), 2u);
}

TEST(CandidatesTest, UnknownTagYieldsNothing) {
  auto indexed = MustIndex(kXml);
  EXPECT_TRUE(CandidatesFor(indexed, Q("//zzz"), 0).empty());
}

TEST(CandidatesTest, ChildRootAxisPinsDocumentRoot) {
  auto indexed = MustIndex(kXml);
  EXPECT_EQ(CandidatesFor(indexed, Q("/r"), 0).size(), 1u);
  EXPECT_TRUE(CandidatesFor(indexed, Q("/a"), 0).empty());
}

TEST(CandidatesTest, NodeSatisfiesAgreesWithCandidates) {
  auto indexed = MustIndex(kXml);
  TwigQuery query = Q(R"(//b[~"two"])");
  std::vector<NodeId> candidates = CandidatesFor(indexed, query, 0);
  std::set<NodeId> set(candidates.begin(), candidates.end());
  for (NodeId id = 0; id < indexed.document().num_nodes(); ++id) {
    EXPECT_EQ(NodeSatisfies(indexed, query, 0, id), set.contains(id))
        << "node " << id;
  }
}

// -------------------------------------------------------------- PathMerge

/// Builds flat SolutionTables (stride = path length) from nested binding
/// vectors so the fixtures stay readable.
std::vector<SolutionTable> Tables(
    const std::vector<std::vector<QueryNodeId>>& paths,
    const std::vector<std::vector<std::vector<NodeId>>>& nested) {
  std::vector<SolutionTable> tables(nested.size());
  for (size_t p = 0; p < nested.size(); ++p) {
    tables[p].stride = paths[p].size();
    for (const std::vector<NodeId>& solution : nested[p]) {
      tables[p].AppendRow(solution.data());
    }
  }
  return tables;
}

TEST(PathMergeTest, SinglePathPassesThrough) {
  TwigQuery query = Q("//a/b");
  std::vector<std::vector<QueryNodeId>> paths = {{0, 1}};
  std::vector<std::vector<std::vector<NodeId>>> solutions = {
      {{10, 11}, {20, 21}}};
  uint64_t tuples = 0;
  std::vector<Match> merged =
      MergePathSolutions(query, paths, Tables(paths, solutions), &tuples);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].bindings, (std::vector<NodeId>{10, 11}));
  EXPECT_EQ(tuples, 2u);
}

TEST(PathMergeTest, JoinsOnSharedPrefix) {
  TwigQuery query = Q("//a[b]/c");  // paths (a,b) and (a,c) share a
  std::vector<std::vector<QueryNodeId>> paths = {{0, 1}, {0, 2}};
  std::vector<std::vector<std::vector<NodeId>>> solutions = {
      {{10, 11}, {20, 21}},          // (a,b)
      {{10, 12}, {10, 13}, {30, 31}}  // (a,c); 30 has no b partner
  };
  uint64_t tuples = 0;
  std::vector<Match> merged =
      MergePathSolutions(query, paths, Tables(paths, solutions), &tuples);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].bindings, (std::vector<NodeId>{10, 11, 12}));
  EXPECT_EQ(merged[1].bindings, (std::vector<NodeId>{10, 11, 13}));
}

TEST(PathMergeTest, EmptySolutionListKillsEverything) {
  TwigQuery query = Q("//a[b]/c");
  std::vector<std::vector<QueryNodeId>> paths = {{0, 1}, {0, 2}};
  std::vector<std::vector<std::vector<NodeId>>> solutions = {
      {{10, 11}}, {}};
  uint64_t tuples = 0;
  EXPECT_TRUE(
      MergePathSolutions(query, paths, Tables(paths, solutions), &tuples)
          .empty());
}

TEST(PathMergeTest, OrderPruningDropsViolatingPartials) {
  auto indexed = MustIndex("<r><a><b>x</b><c>y</c></a></r>");
  const xml::Document& document = indexed.document();
  // b precedes c in the document; demand the reverse.
  TwigQuery query = Q("//a[ordered][c][b]");
  NodeId a = 1;
  NodeId b = 2;  // element b
  NodeId c = 4;  // element c
  ASSERT_EQ(document.TagName(b), "b");
  ASSERT_EQ(document.TagName(c), "c");
  std::vector<std::vector<QueryNodeId>> paths = {{0, 1}, {0, 2}};
  std::vector<std::vector<std::vector<NodeId>>> solutions = {{{a, c}},
                                                             {{a, b}}};
  uint64_t tuples = 0;
  EXPECT_TRUE(
      MergePathSolutions(query, paths, Tables(paths, solutions), &tuples,
                         &document)
          .empty());
  // Under the unordered query the same tuple survives the merge.
  EXPECT_EQ(MergePathSolutions(Q("//a[c][b]"), paths,
                               Tables(paths, solutions), &tuples, &document)
                .size(),
            1u);
}

TEST(PathMergeTest, OutOfOrderTablesAreSortedBeforeTheJoin) {
  TwigQuery query = Q("//a[b]/c");
  std::vector<std::vector<QueryNodeId>> paths = {{0, 1}, {0, 2}};
  std::vector<std::vector<std::vector<NodeId>>> solutions = {
      {{20, 21}, {10, 11}, {10, 14}},  // not root-first sorted
      {{20, 22}, {10, 13}, {10, 12}}};
  uint64_t tuples = 0;
  std::vector<Match> merged =
      MergePathSolutions(query, paths, Tables(paths, solutions), &tuples);
  std::vector<std::vector<NodeId>> bindings;
  for (const Match& match : merged) bindings.push_back(match.bindings);
  EXPECT_EQ(bindings, (std::vector<std::vector<NodeId>>{{10, 11, 12},
                                                        {10, 11, 13},
                                                        {10, 14, 12},
                                                        {10, 14, 13},
                                                        {20, 21, 22}}));
  EXPECT_EQ(tuples, 3u + 5u);
}

// ----------------------------------------- PathMerge differential oracle

// The sort-based equi-join the ordered merge replaced, copied unchanged
// (bar names and the order-pruning switch, which follows the merge's
// parameters) from the merge as it was, as the oracle: sort the
// accumulated tuples on the shared key, binary-search each path row's
// key, prune, repeat; finally sort and dedup the complete tuples.
void OraclePruneByPartialOrder(const TwigQuery& query,
                               const xml::Document& document,
                               SolutionTable* table) {
  auto violates = [&](const xml::NodeId* bindings) {
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      const QueryNode& node = query.node(q);
      if (!node.ordered || node.children.size() < 2) continue;
      for (size_t i = 0; i + 1 < node.children.size(); ++i) {
        xml::NodeId left = bindings[static_cast<size_t>(node.children[i])];
        xml::NodeId right =
            bindings[static_cast<size_t>(node.children[i + 1])];
        if (left == xml::kInvalidNodeId || right == xml::kInvalidNodeId) {
          continue;  // not both bound yet
        }
        if (document.node(left).subtree_end >= right) return true;
      }
    }
    return false;
  };
  size_t write = 0;
  size_t rows = table->num_rows();
  for (size_t r = 0; r < rows; ++r) {
    if (violates(table->row(r))) continue;
    if (write != r) {
      std::copy(table->row(r), table->row(r) + table->stride,
                table->row(write));
    }
    ++write;
  }
  table->rows.resize(write * table->stride);
}

std::vector<Match> SortMergeOracle(
    const TwigQuery& query,
    const std::vector<std::vector<QueryNodeId>>& paths,
    const std::vector<SolutionTable>& solutions, uint64_t* join_tuples,
    const xml::Document* document) {
  bool prune = document != nullptr && query.HasOrderConstraints();
  if (paths.empty()) return {};

  std::vector<bool> bound(static_cast<size_t>(query.size()), false);
  SolutionTable table;
  table.stride = static_cast<size_t>(query.size());

  // Seed with the first path.
  table.rows.reserve(solutions[0].num_rows() * table.stride);
  for (size_t s = 0; s < solutions[0].num_rows(); ++s) {
    const xml::NodeId* solution = solutions[0].row(s);
    size_t at = table.rows.size();
    table.rows.resize(at + table.stride, xml::kInvalidNodeId);
    for (size_t i = 0; i < paths[0].size(); ++i) {
      table.rows[at + static_cast<size_t>(paths[0][i])] = solution[i];
    }
  }
  for (QueryNodeId q : paths[0]) bound[static_cast<size_t>(q)] = true;
  if (prune) OraclePruneByPartialOrder(query, *document, &table);
  if (join_tuples != nullptr) *join_tuples += table.num_rows();

  for (size_t p = 1; p < paths.size() && table.num_rows() != 0; ++p) {
    const std::vector<QueryNodeId>& path = paths[p];
    // Positions of this path's nodes that the joined prefix already binds
    // (always a non-empty prefix: at least the query root).
    std::vector<size_t> shared_positions;
    std::vector<size_t> new_positions;
    for (size_t i = 0; i < path.size(); ++i) {
      if (bound[static_cast<size_t>(path[i])]) {
        shared_positions.push_back(i);
      } else {
        new_positions.push_back(i);
      }
    }

    // Sort-based equi-join on the shared bindings: order tuple rows by
    // their shared-node key, then binary-search each path solution's
    // key — no per-tuple key vectors, no map nodes.
    size_t rows = table.num_rows();
    std::vector<uint32_t> order(rows);
    std::iota(order.begin(), order.end(), 0u);
    auto row_key_less = [&](uint32_t a, uint32_t b) {
      for (size_t i : shared_positions) {
        xml::NodeId lhs = table.row(a)[static_cast<size_t>(path[i])];
        xml::NodeId rhs = table.row(b)[static_cast<size_t>(path[i])];
        if (lhs != rhs) return lhs < rhs;
      }
      return false;
    };
    std::sort(order.begin(), order.end(), row_key_less);

    SolutionTable next;
    next.stride = table.stride;
    for (size_t s = 0; s < solutions[p].num_rows(); ++s) {
      const xml::NodeId* solution = solutions[p].row(s);
      auto lower = std::lower_bound(
          order.begin(), order.end(), solution,
          [&](uint32_t r, const xml::NodeId* sol) {
            for (size_t i : shared_positions) {
              xml::NodeId lhs = table.row(r)[static_cast<size_t>(path[i])];
              if (lhs != sol[i]) return lhs < sol[i];
            }
            return false;
          });
      auto upper = std::upper_bound(
          lower, order.end(), solution,
          [&](const xml::NodeId* sol, uint32_t r) {
            for (size_t i : shared_positions) {
              xml::NodeId rhs = table.row(r)[static_cast<size_t>(path[i])];
              if (sol[i] != rhs) return sol[i] < rhs;
            }
            return false;
          });
      for (auto it = lower; it != upper; ++it) {
        size_t at = next.rows.size();
        next.rows.insert(next.rows.end(), table.row(*it),
                         table.row(*it) + table.stride);
        for (size_t i : new_positions) {
          next.rows[at + static_cast<size_t>(path[i])] = solution[i];
        }
      }
    }
    table = std::move(next);
    for (QueryNodeId q : path) bound[static_cast<size_t>(q)] = true;
    if (prune) OraclePruneByPartialOrder(query, *document, &table);
    if (join_tuples != nullptr) *join_tuples += table.num_rows();
  }

  // Canonical order + dedup on the flat rows, then materialize only the
  // surviving tuples as Match objects.
  size_t rows = table.num_rows();
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(
        table.row(a), table.row(a) + table.stride, table.row(b),
        table.row(b) + table.stride);
  });
  std::vector<Match> tuples;
  tuples.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    const xml::NodeId* r = table.row(order[i]);
    if (i > 0) {
      const xml::NodeId* prev = table.row(order[i - 1]);
      if (std::equal(r, r + table.stride, prev)) continue;
    }
    Match match;
    match.bindings.assign(r, r + table.stride);
    tuples.push_back(std::move(match));
  }
  return tuples;
}

/// A random query tree of 2..6 nodes. With `preorder` its ids follow
/// the parser's preorder numbering; otherwise nodes are added in a
/// random parent-first order, so a later path's shared key need not be
/// the accumulated tuples' leading columns and the ids are not the
/// join's column order. Random nodes with two or more children are
/// marked ordered.
TwigQuery RandomQuery(std::mt19937* rng, bool preorder) {
  const int size = std::uniform_int_distribution<int>(2, 6)(*rng);
  std::vector<int> parent(static_cast<size_t>(size), -1);  // shape
  for (int v = 1; v < size; ++v) {
    parent[static_cast<size_t>(v)] =
        std::uniform_int_distribution<int>(0, v - 1)(*rng);
  }
  std::vector<std::vector<int>> children(static_cast<size_t>(size));
  for (int v = 1; v < size; ++v) {
    children[static_cast<size_t>(parent[static_cast<size_t>(v)])].push_back(v);
  }
  // Shape vertex order in which nodes get added: preorder, or any order
  // that adds a parent before its children.
  std::vector<int> add_order;
  if (preorder) {
    std::vector<int> todo = {0};
    while (!todo.empty()) {
      int v = todo.back();
      todo.pop_back();
      add_order.push_back(v);
      const std::vector<int>& kids = children[static_cast<size_t>(v)];
      todo.insert(todo.end(), kids.rbegin(), kids.rend());
    }
  } else {
    std::vector<int> frontier = {0};
    while (!frontier.empty()) {
      size_t pick = std::uniform_int_distribution<size_t>(
          0, frontier.size() - 1)(*rng);
      int v = frontier[pick];
      frontier.erase(frontier.begin() + static_cast<std::ptrdiff_t>(pick));
      add_order.push_back(v);
      for (int kid : children[static_cast<size_t>(v)]) frontier.push_back(kid);
    }
  }
  TwigQuery query;
  std::vector<QueryNodeId> id_of(static_cast<size_t>(size));
  for (int v : add_order) {
    id_of[static_cast<size_t>(v)] =
        v == 0 ? query.AddRoot("a")
               : query.AddChild(id_of[static_cast<size_t>(
                                    parent[static_cast<size_t>(v)])],
                                Axis::kDescendant, "a");
  }
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    if (query.node(q).children.size() >= 2 && (*rng)() % 2 == 0) {
      query.SetOrdered(q, true);
    }
  }
  return query;
}

/// Random rows over a small node-id domain (many shared keys), in random
/// order, with duplicates; sometimes sorted, sometimes empty.
SolutionTable RandomTable(std::mt19937* rng, size_t stride,
                          NodeId num_nodes) {
  SolutionTable table;
  table.stride = stride;
  const int rows = (*rng)() % 10 == 0
                       ? 0
                       : std::uniform_int_distribution<int>(1, 14)(*rng);
  std::uniform_int_distribution<NodeId> node(
      0, std::min<NodeId>(num_nodes - 1, 5));
  for (int r = 0; r < rows; ++r) {
    if (r > 0 && (*rng)() % 5 == 0) {  // duplicate an earlier row
      size_t from = (*rng)() % table.num_rows();
      std::vector<NodeId> copy(table.row(from), table.row(from) + stride);
      table.AppendRow(copy.data());
      continue;
    }
    std::vector<NodeId> row(stride);
    for (NodeId& value : row) value = node(*rng);
    table.AppendRow(row.data());
  }
  if ((*rng)() % 3 == 0) {  // root-first sorted, as producers mostly emit
    std::vector<std::vector<NodeId>> sorted;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      sorted.emplace_back(table.row(r), table.row(r) + stride);
    }
    std::sort(sorted.begin(), sorted.end());
    table.rows.clear();
    for (const std::vector<NodeId>& row : sorted) table.AppendRow(row.data());
  }
  return table;
}

TEST(PathMergeDifferentialTest, MatchesTheSortBasedMerge) {
  // Bindings are ids of this document's nodes, so order pruning can look
  // at their subtree ends.
  auto indexed = MustIndex(
      "<r><a><a><a/></a><a/></a><a><a/><a><a/></a></a></r>");
  const xml::Document& document = indexed.document();
  std::mt19937 rng(20240611);
  int canonical_queries = 0;
  int nonpreorder_queries = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    const bool preorder = trial % 2 == 0;
    TwigQuery query = RandomQuery(&rng, preorder);
    std::vector<std::vector<QueryNodeId>> paths = query.RootToLeafPaths();
    std::vector<SolutionTable> tables;
    for (const std::vector<QueryNodeId>& path : paths) {
      tables.push_back(RandomTable(&rng, path.size(), document.num_nodes()));
    }
    (preorder ? canonical_queries : nonpreorder_queries)++;
    // The random query (its ordered nodes pruned in the merge) and the
    // same shape with every order flag cleared.
    for (const TwigQuery& variant :
         {query, lotusx::testing::WithoutOrder(query)}) {
      uint64_t expected_tuples = 0;
      uint64_t tuples = 0;
      std::vector<Match> expected = SortMergeOracle(
          variant, paths, tables, &expected_tuples, &document);
      std::vector<Match> merged =
          MergePathSolutions(variant, paths, tables, &tuples, &document);
      ASSERT_EQ(merged, expected) << variant.ToString();
      ASSERT_EQ(tuples, expected_tuples) << variant.ToString();
    }
  }
  EXPECT_GT(canonical_queries, 0);
  EXPECT_GT(nonpreorder_queries, 0);
}

TEST(PathMergeDifferentialTest, NestedSameTagSolutionsOnTreebank) {
  // Recursive np/pp nesting gives a leaf several solutions whose
  // ancestors interleave with the next leaf's: TwigStack and TJFast emit
  // those path tables out of root-first order, and the merge must sort
  // them before joining.
  datagen::TreebankOptions options;
  options.num_sentences = 60;
  options.seed = 3;
  index::IndexedDocument indexed(datagen::GenerateTreebank(options));
  for (std::string_view text :
       {"//np//np", "//np[pp]//np", "//s//np[np]//pp", "//vp//np//np",
        "//np[ordered][np][pp]"}) {
    SCOPED_TRACE(std::string(text));
    TwigQuery query = Q(text);
    EvalOptions eval;
    eval.algorithm = Algorithm::kStructuralJoin;
    auto expected = Evaluate(indexed, query, eval);
    ASSERT_TRUE(expected.ok());
    std::vector<Algorithm> algorithms = {Algorithm::kTwigStack,
                                         Algorithm::kTJFast};
    if (query.IsPath()) algorithms.push_back(Algorithm::kPathStack);
    for (Algorithm algorithm : algorithms) {
      eval.algorithm = algorithm;
      auto result = Evaluate(indexed, query, eval);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->matches, expected->matches)
          << AlgorithmName(algorithm);
    }
    // Several solutions per leaf: more matches than distinct leaf
    // bindings.
    if (text == "//np//np") {
      std::set<NodeId> leaves;
      for (const Match& match : expected->matches) {
        leaves.insert(match.bindings[1]);
      }
      EXPECT_LT(leaves.size(), expected->matches.size());
    }
  }
}

// ------------------------------------------------------------ OrderFilter

TEST(OrderFilterTest, DisjointPrecedingSiblingsPass) {
  auto indexed = MustIndex("<r><a><b>x</b><c>y</c></a></r>");
  TwigQuery query = Q("//a[ordered][b][c]");
  auto oracle = lotusx::testing::BruteForceMatches(indexed, query,
                                                   /*apply_order=*/false);
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_TRUE(
      SatisfiesOrderConstraints(indexed.document(), query, oracle[0]));
  TwigQuery reversed = Q("//a[ordered][c][b]");
  auto reversed_oracle = lotusx::testing::BruteForceMatches(
      indexed, reversed, /*apply_order=*/false);
  ASSERT_EQ(reversed_oracle.size(), 1u);
  EXPECT_FALSE(SatisfiesOrderConstraints(indexed.document(), reversed,
                                         reversed_oracle[0]));
}

TEST(OrderFilterTest, NestedBindingsViolateOrder) {
  // b contains c: they are not disjoint, so neither order holds.
  auto indexed = MustIndex("<r><a><b><c>x</c></b></a></r>");
  for (std::string_view text :
       {"//a[ordered][b][//c]", "//a[ordered][//c][b]"}) {
    TwigQuery query = Q(text);
    auto unordered = lotusx::testing::BruteForceMatches(
        indexed, query, /*apply_order=*/false);
    ASSERT_EQ(unordered.size(), 1u) << text;
    EXPECT_FALSE(SatisfiesOrderConstraints(indexed.document(), query,
                                           unordered[0]))
        << text;
  }
}

TEST(OrderFilterTest, FilterByOrderRemovesInPlace) {
  auto indexed = MustIndex("<r><a><b>x</b><c>y</c><b>z</b></a></r>");
  TwigQuery query = Q("//a[ordered][b][c]");
  std::vector<Match> matches = lotusx::testing::BruteForceMatches(
      indexed, query, /*apply_order=*/false);
  ASSERT_EQ(matches.size(), 2u);  // two b choices
  FilterByOrder(indexed.document(), query, &matches);
  ASSERT_EQ(matches.size(), 1u);  // only the first b precedes c
}

TEST(OrderFilterTest, UnorderedNodesAreIgnored) {
  auto indexed = MustIndex("<r><a><c>y</c><b>x</b></a></r>");
  TwigQuery query = Q("//a[b][c]");  // no [ordered]
  std::vector<Match> matches = lotusx::testing::BruteForceMatches(
      indexed, query, /*apply_order=*/false);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_TRUE(
      SatisfiesOrderConstraints(indexed.document(), query, matches[0]));
}

}  // namespace
}  // namespace lotusx::twig
