#include "rewrite/rewriter.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/string_util.h"
#include "twig/schema_match.h"

namespace lotusx::rewrite {

namespace {

using twig::Axis;
using twig::QueryNodeId;
using twig::TwigQuery;
using twig::ValuePredicate;

constexpr double kAxisPenalty = 1.0;
constexpr double kEqualsToContainsPenalty = 1.0;
constexpr double kDropPredicatePenalty = 3.0;
// Respelling beats branch-dropping at any edit distance <= 2: a
// 1-2 character typo is far likelier than an unwanted box.
constexpr double kTagEditBasePenalty = 1.2;   // + 0.3 per edit
constexpr double kSiblingTagPenalty = 2.5;
constexpr double kWildcardPenalty = 3.5;
constexpr double kDropLeafPenalty = 2.0;

/// Rebuilds `query` without the subtree rooted at `removed`, returning
/// the remapping old id -> new id (kInvalidQueryNode for removed nodes).
/// Every kept node keeps its predicate and its order and output marks.
std::pair<TwigQuery, std::vector<QueryNodeId>> RemoveSubtree(
    const TwigQuery& query, QueryNodeId removed) {
  TwigQuery rebuilt;
  std::vector<QueryNodeId> remap(static_cast<size_t>(query.size()),
                                 twig::kInvalidQueryNode);
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    const twig::QueryNode& node = query.node(q);
    // A parent precedes its children, so a removed parent is already
    // unmapped.
    if (q == removed || (q != query.root() &&
                         remap[static_cast<size_t>(node.parent)] ==
                             twig::kInvalidQueryNode)) {
      continue;
    }
    QueryNodeId id =
        q == query.root()
            ? rebuilt.AddRoot(node.tag, query.root_axis())
            : rebuilt.AddChild(remap[static_cast<size_t>(node.parent)],
                               node.incoming_axis, node.tag);
    remap[static_cast<size_t>(q)] = id;
    if (node.predicate.active()) rebuilt.SetPredicate(id, node.predicate);
    if (node.ordered) rebuilt.SetOrdered(id, true);
    if (node.is_output) rebuilt.SetOutput(id);
  }
  return {std::move(rebuilt), std::move(remap)};
}

}  // namespace

twig::TwigQuery Rewriter::RemoveLeaf(const TwigQuery& query,
                                     QueryNodeId leaf) {
  CHECK(query.node(leaf).children.empty()) << "not a leaf";
  CHECK_NE(leaf, query.root()) << "cannot remove the root";
  CHECK_NE(leaf, query.output()) << "cannot remove the output node";
  return RemoveSubtree(query, leaf).first;
}

std::vector<RewriteCandidate> Rewriter::Propose(
    const TwigQuery& query, const RewriteOptions& options) const {
  std::vector<RewriteCandidate> candidates;
  const xml::Document& document = indexed_.document();

  // Rule 1: axis generalization '/' -> '//'.
  if (options.relax_axes) {
    for (QueryNodeId q = 1; q < query.size(); ++q) {
      if (query.node(q).incoming_axis != Axis::kChild) continue;
      TwigQuery relaxed = query;
      relaxed.SetIncomingAxis(q, Axis::kDescendant);
      candidates.push_back(RewriteCandidate{
          std::move(relaxed), kAxisPenalty,
          "relax /" + query.node(q).tag + " to //" + query.node(q).tag});
    }
    if (query.root_axis() == Axis::kChild) {
      TwigQuery relaxed = query;
      relaxed.SetIncomingAxis(query.root(), Axis::kDescendant);
      candidates.push_back(RewriteCandidate{
          std::move(relaxed), kAxisPenalty,
          "anchor root " + query.node(0).tag + " anywhere (//)"});
    }
  }

  // Rule 2: tag substitution. Two sources: (a) similar spelling among the
  // document's tags (typo repair), (b) sibling tags from the DataGuide —
  // tags occurring under the same parent paths (semantic neighbours).
  if (options.substitute_tags) {
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      const std::string& tag = query.node(q).tag;
      if (tag == "*") continue;
      bool unknown = document.FindTag(tag) == xml::kInvalidTagId;
      // (a) Spelling: only useful when the tag does not exist as written.
      if (unknown) {
        for (xml::TagId t = 0; t < document.num_tags(); ++t) {
          const std::string_view other = document.tag_name(t);
          int distance = EditDistance(tag, other);
          if (distance == 0 || distance > 2) continue;
          TwigQuery repaired = query;
          repaired.SetTag(q, other);
          candidates.push_back(RewriteCandidate{
              std::move(repaired),
              kTagEditBasePenalty + 0.3 * distance,
              "respell '" + tag + "' as '" + std::string(other) + "'"});
        }
      }
      // (b) Position-aware substitution: tags that can actually occur at
      // q's position given the *rest* of the query (the same DataGuide
      // machinery that powers auto-completion). For the query root the
      // context is empty, so fall back to the wrong tag's DataGuide
      // siblings.
      xml::TagId tag_id = document.FindTag(tag);
      const index::DataGuide& guide = indexed_.dataguide();
      std::vector<index::PathId> positions;
      Axis axis = Axis::kChild;
      if (q != query.root()) {
        auto [context, remap] = RemoveSubtree(query, q);
        QueryNodeId parent =
            remap[static_cast<size_t>(query.node(q).parent)];
        positions = std::move(twig::SchemaBindings(
            indexed_, context)[static_cast<size_t>(parent)]);
        axis = query.node(q).incoming_axis;
      } else {
        for (index::PathId p : guide.PathsWithTag(tag_id)) {
          index::PathId parent = guide.node(p).parent;
          if (parent != index::kInvalidPathId) positions.push_back(parent);
        }
      }
      std::map<xml::TagId, uint64_t> alternatives =
          twig::TagsBelow(guide, positions, axis);
      alternatives.erase(tag_id);
      // Frequent-at-position tags first; crossing the element/attribute
      // kind boundary is a less likely intent.
      std::vector<std::pair<xml::TagId, uint64_t>> ranked(
          alternatives.begin(), alternatives.end());
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      constexpr size_t kMaxSubstitutions = 8;
      bool original_is_attribute = !tag.empty() && tag[0] == '@';
      for (size_t rank = 0;
           rank < ranked.size() && rank < kMaxSubstitutions; ++rank) {
        xml::TagId s = ranked[rank].first;
        std::string name(document.tag_name(s));
        bool kind_mismatch =
            (!name.empty() && name[0] == '@') != original_is_attribute;
        // Attributes are leaves; an internal query node cannot become one.
        if (!name.empty() && name[0] == '@' &&
            !query.node(q).children.empty()) {
          continue;
        }
        TwigQuery substituted = query;
        substituted.SetTag(q, name);
        candidates.push_back(RewriteCandidate{
            std::move(substituted),
            kSiblingTagPenalty + 0.1 * static_cast<double>(rank) +
                (kind_mismatch ? 0.5 : 0.0),
            "substitute '" + name + "' for '" + tag + "' at its position"});
      }
      // (c) Generalize the tag to the wildcard (keeps the structure but
      // matches any element). Incompatible with equality predicates.
      if (query.node(q).predicate.op != ValuePredicate::Op::kEquals) {
        TwigQuery generalized = query;
        generalized.SetTag(q, "*");
        candidates.push_back(RewriteCandidate{
            std::move(generalized), kWildcardPenalty,
            "generalize '" + tag + "' to any element"});
      }
    }
  }

  // Rule 3: predicate relaxation: '=' -> '~' -> (none).
  if (options.relax_predicates) {
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      const ValuePredicate& predicate = query.node(q).predicate;
      if (predicate.op == ValuePredicate::Op::kEquals) {
        TwigQuery relaxed = query;
        relaxed.SetPredicate(
            q, ValuePredicate{ValuePredicate::Op::kContains,
                              predicate.text});
        candidates.push_back(RewriteCandidate{
            std::move(relaxed), kEqualsToContainsPenalty,
            "match '" + predicate.text + "' as keywords on " +
                query.node(q).tag});
      }
      if (predicate.active()) {
        TwigQuery dropped = query;
        dropped.SetPredicate(q, ValuePredicate{});
        candidates.push_back(RewriteCandidate{
            std::move(dropped), kDropPredicatePenalty,
            "drop value condition on " + query.node(q).tag});
      }
    }
  }

  // Rule 4: drop a non-output leaf branch.
  if (options.drop_leaves && query.size() > 1) {
    for (QueryNodeId leaf : query.Leaves()) {
      if (leaf == query.output() || leaf == query.root()) continue;
      candidates.push_back(RewriteCandidate{
          RemoveLeaf(query, leaf),
          kDropLeafPenalty +
              (query.node(leaf).predicate.active() ? 0.5 : 0.0),
          "drop branch " + query.node(leaf).tag});
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const RewriteCandidate& a, const RewriteCandidate& b) {
              if (a.penalty != b.penalty) return a.penalty < b.penalty;
              return a.description < b.description;
            });
  return candidates;
}

StatusOr<RewriteOutcome> Rewriter::Rewrite(
    const TwigQuery& query, const RewriteOptions& options) const {
  LOTUSX_ASSIGN_OR_RETURN(std::vector<RewriteOutcome> outcomes,
                          RewriteAll(query, options, 1));
  if (outcomes.empty()) {
    return Status::NotFound(
        "no rewrite within budget produced enough results");
  }
  return std::move(outcomes.front());
}

StatusOr<std::vector<RewriteOutcome>> Rewriter::RewriteAll(
    const TwigQuery& query, const RewriteOptions& options,
    size_t max_outcomes) const {
  LOTUSX_RETURN_IF_ERROR(query.Validate());
  std::vector<RewriteOutcome> outcomes;
  if (max_outcomes == 0) return outcomes;

  // Evaluate the original first.
  LOTUSX_ASSIGN_OR_RETURN(twig::QueryResult original,
                          twig::Evaluate(indexed_, query));
  if (original.matches.size() >= options.min_results) {
    RewriteOutcome outcome;
    outcome.query = query;
    outcome.result = std::move(original);
    outcomes.push_back(std::move(outcome));
    return outcomes;
  }

  // Best-first search over rewrite chains.
  struct SearchNode {
    double penalty;
    TwigQuery query;
    std::vector<std::string> applied;
    bool operator>(const SearchNode& other) const {
      if (penalty != other.penalty) return penalty > other.penalty;
      return applied > other.applied;  // deterministic ordering
    }
  };
  std::priority_queue<SearchNode, std::vector<SearchNode>,
                      std::greater<SearchNode>>
      frontier;
  std::set<std::string> seen;
  seen.insert(query.ToString());
  for (RewriteCandidate& candidate : Propose(query, options)) {
    if (candidate.penalty > options.max_penalty) continue;
    std::string key = candidate.query.ToString();
    if (!seen.insert(key).second) continue;
    frontier.push(SearchNode{candidate.penalty, std::move(candidate.query),
                             {std::move(candidate.description)}});
  }

  size_t evaluations = 0;
  while (!frontier.empty() && evaluations < options.max_evaluations &&
         outcomes.size() < max_outcomes) {
    SearchNode node = frontier.top();
    frontier.pop();
    ++evaluations;
    LOTUSX_ASSIGN_OR_RETURN(twig::QueryResult result,
                            twig::Evaluate(indexed_, node.query));
    if (result.matches.size() >= options.min_results) {
      RewriteOutcome outcome;
      outcome.query = std::move(node.query);
      outcome.result = std::move(result);
      outcome.penalty = node.penalty;
      outcome.applied = std::move(node.applied);
      outcome.evaluations = evaluations;
      outcomes.push_back(std::move(outcome));
      continue;  // successes are reported, not expanded further
    }
    // Expand further rewrites of this (still failing) query.
    for (RewriteCandidate& candidate : Propose(node.query, options)) {
      double total = node.penalty + candidate.penalty;
      if (total > options.max_penalty) continue;
      std::string key = candidate.query.ToString();
      if (!seen.insert(key).second) continue;
      std::vector<std::string> applied = node.applied;
      applied.push_back(std::move(candidate.description));
      frontier.push(SearchNode{total, std::move(candidate.query),
                               std::move(applied)});
    }
  }
  return outcomes;
}

}  // namespace lotusx::rewrite
