#include "twig/structural_join.h"

#include <algorithm>

#include "common/timer.h"
#include "twig/candidates.h"
#include "twig/evaluator.h"

namespace lotusx::twig {

namespace {

/// (ancestor, descendant) pair produced by one edge join.
struct EdgePair {
  xml::NodeId ancestor;
  xml::NodeId descendant;
};

/// Stack-tree structural join between a sorted unique list of potential
/// ancestors and a sorted candidate descendant stream. Emits every pair
/// satisfying the axis. Output is grouped by descendant in document order.
/// The stream is consumed via its cursor: whenever no ancestor is open,
/// the stream seeks directly past the next ancestor's start — on
/// block-compressed streams that skips whole blocks undecoded.
std::vector<EdgePair> StackTreeJoin(const xml::Document& document,
                                    const std::vector<xml::NodeId>& ancestors,
                                    CandidateStream* stream, Axis axis) {
  std::vector<EdgePair> pairs;
  std::vector<xml::NodeId> stack;  // chain of nested open ancestors
  size_t next_ancestor = 0;
  while (true) {
    if (stack.empty()) {
      // No open ancestor: nothing can pair until we are strictly past
      // the next ancestor's start.
      if (next_ancestor >= ancestors.size()) break;
      if (!stream->SeekGE(ancestors[next_ancestor] + 1)) break;
    } else if (stream->AtEnd()) {
      break;
    }
    xml::NodeId d = stream->Key();
    // Open every ancestor starting before d, closing finished ones first.
    while (next_ancestor < ancestors.size() &&
           ancestors[next_ancestor] < d) {
      xml::NodeId a = ancestors[next_ancestor++];
      while (!stack.empty() &&
             document.node(stack.back()).subtree_end < a) {
        stack.pop_back();
      }
      stack.push_back(a);
    }
    // Close ancestors that end before d.
    while (!stack.empty() && document.node(stack.back()).subtree_end < d) {
      stack.pop_back();
    }
    // Every remaining stack entry contains d (nested-chain invariant).
    if (axis == Axis::kDescendant) {
      for (xml::NodeId a : stack) {
        pairs.push_back(EdgePair{a, d});
      }
    } else if (!stack.empty()) {
      // Parent-child: among a chain of ancestors of d at distinct depths,
      // only the one at depth(d) - 1 can be the parent.
      int32_t want_depth = document.node(d).depth - 1;
      for (xml::NodeId a : stack) {
        if (document.node(a).depth == want_depth) {
          pairs.push_back(EdgePair{a, d});
          break;
        }
      }
    }
    stream->Next();
  }
  return pairs;
}

}  // namespace

QueryResult StructuralJoinEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    const std::vector<std::vector<index::PathId>>* schema_bindings,
    bool reorder_joins, EvalContext* ctx) {
  EvalContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  Timer timer;
  QueryResult result;
  result.stats.algorithm =
      AlgorithmName(reorder_joins ? Algorithm::kStructuralJoinReordered
                                  : Algorithm::kStructuralJoin);
  const xml::Document& document = indexed.document();

  // Candidate streams.
  std::vector<CandidateStream> candidates;
  candidates.reserve(static_cast<size_t>(query.size()));
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    candidates.push_back(OpenCandidates(
        indexed, query, q, ctx,
        schema_bindings == nullptr
            ? nullptr
            : &(*schema_bindings)[static_cast<size_t>(q)]));
    if (candidates[static_cast<size_t>(q)].count() == 0) {
      result.stats.candidates_scanned = ElementsRead(candidates);
      FillPostingStats(*ctx, &result.stats);
      result.stats.elapsed_ms = timer.ElapsedMillis();
      return result;
    }
  }

  // Partial matches live in a flat row-major table (stride = query
  // size) instead of one heap-allocated bindings vector per Match:
  // expansion appends rows with a plain copy, and only the surviving
  // rows are materialized as Match objects at the end.
  const size_t stride = static_cast<size_t>(query.size());
  std::vector<xml::NodeId> table;
  table.reserve(candidates[0].count() * stride);
  for (; !candidates[0].AtEnd(); candidates[0].Next()) {
    size_t row = table.size();
    table.resize(row + stride, xml::kInvalidNodeId);
    table[row] = candidates[0].Key();
  }
  size_t num_rows = table.size() / stride;
  result.stats.intermediate_tuples += num_rows;

  // Edge processing order: query order by default; with reorder_joins, a
  // greedy order that always joins the joinable node (parent already
  // bound) with the smallest candidate stream next.
  std::vector<QueryNodeId> join_order;
  if (!reorder_joins) {
    for (QueryNodeId q = 1; q < query.size(); ++q) join_order.push_back(q);
  } else {
    std::vector<bool> bound(static_cast<size_t>(query.size()), false);
    bound[0] = true;
    while (static_cast<int>(join_order.size()) + 1 < query.size()) {
      QueryNodeId best = kInvalidQueryNode;
      for (QueryNodeId q = 1; q < query.size(); ++q) {
        if (bound[static_cast<size_t>(q)] ||
            !bound[static_cast<size_t>(query.node(q).parent)]) {
          continue;
        }
        if (best == kInvalidQueryNode ||
            candidates[static_cast<size_t>(q)].count() <
                candidates[static_cast<size_t>(best)].count()) {
          best = q;
        }
      }
      CHECK(best != kInvalidQueryNode);
      bound[static_cast<size_t>(best)] = true;
      join_order.push_back(best);
    }
  }

  for (QueryNodeId q : join_order) {
    if (num_rows == 0) break;
    QueryNodeId p = query.node(q).parent;
    // Distinct parent bindings, sorted, with the partials bound to each.
    std::vector<xml::NodeId> ancestors;
    ancestors.reserve(num_rows);
    for (size_t row = 0; row < num_rows; ++row) {
      ancestors.push_back(table[row * stride + static_cast<size_t>(p)]);
    }
    std::sort(ancestors.begin(), ancestors.end());
    ancestors.erase(std::unique(ancestors.begin(), ancestors.end()),
                    ancestors.end());

    std::vector<EdgePair> pairs =
        StackTreeJoin(document, ancestors,
                      &candidates[static_cast<size_t>(q)],
                      query.node(q).incoming_axis);

    // Group descendants per ancestor by sorting (stable: keeps each
    // ancestor's descendants in document order), then expand each
    // partial row by binary-searching its ancestor's run.
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const EdgePair& a, const EdgePair& b) {
                       return a.ancestor < b.ancestor;
                     });
    std::vector<xml::NodeId> next;
    for (size_t row = 0; row < num_rows; ++row) {
      xml::NodeId a = table[row * stride + static_cast<size_t>(p)];
      auto run = std::equal_range(
          pairs.begin(), pairs.end(), EdgePair{a, 0},
          [](const EdgePair& lhs, const EdgePair& rhs) {
            return lhs.ancestor < rhs.ancestor;
          });
      for (auto it = run.first; it != run.second; ++it) {
        size_t out = next.size();
        next.insert(next.end(), table.begin() + (row * stride),
                    table.begin() + ((row + 1) * stride));
        next[out + static_cast<size_t>(q)] = it->descendant;
      }
    }
    table = std::move(next);
    num_rows = table.size() / stride;
    result.stats.intermediate_tuples += num_rows;
  }

  result.matches.reserve(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    Match match;
    match.bindings.assign(table.begin() + (row * stride),
                          table.begin() + ((row + 1) * stride));
    result.matches.push_back(std::move(match));
  }
  result.stats.matches = result.matches.size();
  result.stats.candidates_scanned = ElementsRead(candidates);
  FillPostingStats(*ctx, &result.stats);
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace lotusx::twig
