#include "twig/twig_stack.h"

#include <algorithm>

#include "common/timer.h"
#include "twig/candidates.h"
#include "twig/path_merge.h"
#include "twig/stack_common.h"


namespace lotusx::twig {

namespace {

using internal_stack::CleanStack;
using internal_stack::kStreamEnd;
using internal_stack::Stack;

/// Stream tag of a "*" query node: any element.
constexpr xml::TagId kAnyElement = -2;

/// Runtime state of one TwigStack execution.
class TwigStackRun {
 public:
  TwigStackRun(const index::IndexedDocument& indexed, const TwigQuery& query,
               EvalContext* ctx)
      : document_(indexed.document()),
        query_(query),
        ctx_(ctx),
        stacks_(static_cast<size_t>(query.size())) {
    streams_.reserve(static_cast<size_t>(query.size()));
    stream_tags_.reserve(static_cast<size_t>(query.size()));
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      streams_.push_back(OpenCandidates(indexed, query, q, ctx));
      const std::string& tag = query.node(q).tag;
      stream_tags_.push_back(tag == "*" ? kAnyElement
                                        : document_.FindTag(tag));
    }
    paths_ = query.RootToLeafPaths();
    // Leaf -> index of its root-to-leaf path.
    path_of_leaf_.assign(static_cast<size_t>(query.size()), -1);
    for (size_t p = 0; p < paths_.size(); ++p) {
      path_of_leaf_[static_cast<size_t>(paths_[p].back())] =
          static_cast<int>(p);
    }
    path_solutions_.resize(paths_.size());
    for (size_t p = 0; p < paths_.size(); ++p) {
      path_solutions_[p].stride = paths_[p].size();
    }
  }

  QueryResult Run() {
    Timer timer;
    QueryResult result;
    result.stats.algorithm = "twigstack";
    // Every query node binds in every match: an empty stream means an
    // empty answer, without running the join.
    if (std::any_of(streams_.begin(), streams_.end(),
                    [](const CandidateStream& s) { return s.AtEnd(); })) {
      result.stats.candidates_scanned = ElementsRead(streams_);
      FillPostingStats(*ctx_, &result.stats);
      result.stats.elapsed_ms = timer.ElapsedMillis();
      return result;
    }

    while (!End(query_.root())) {
      QueryNodeId q = GetNext(query_.root());
      CHECK(!Exhausted(q)) << "getNext returned exhausted node " << q;
      xml::NodeId element = Current(q);
      QueryNodeId parent = query_.node(q).parent;
      if (parent != kInvalidQueryNode) {
        CleanStack(document_, &stacks_[static_cast<size_t>(parent)],
                   element);
      }
      if (parent == kInvalidQueryNode ||
          !stacks_[static_cast<size_t>(parent)].empty()) {
        CleanStack(document_, &stacks_[static_cast<size_t>(q)], element);
        MoveStreamToStack(q);
        if (query_.node(q).children.empty()) {
          int path = path_of_leaf_[static_cast<size_t>(q)];
          internal_stack::EmitPathSolutions(
              document_, query_, paths_[static_cast<size_t>(path)], stacks_,
              static_cast<int>(stacks_[static_cast<size_t>(q)].size()) - 1,
              &emit_scratch_,
              &path_solutions_[static_cast<size_t>(path)]);
          stacks_[static_cast<size_t>(q)].pop_back();
        }
      } else {
        internal_stack::SkipPastUnreachable(
            &streams_[static_cast<size_t>(q)], element,
            streams_[static_cast<size_t>(parent)]);
      }
    }

    for (const SolutionTable& solutions : path_solutions_) {
      result.stats.intermediate_tuples += solutions.num_rows();
    }
    result.matches =
        MergePathSolutions(query_, paths_, path_solutions_,
                           &result.stats.intermediate_tuples, &document_);
    result.stats.matches = result.matches.size();
    result.stats.candidates_scanned = ElementsRead(streams_);
    FillPostingStats(*ctx_, &result.stats);
    result.stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  }

 private:
  bool Exhausted(QueryNodeId q) const {
    return streams_[static_cast<size_t>(q)].AtEnd();
  }
  /// Current element, or kStreamEnd as +infinity sentinel.
  xml::NodeId Current(QueryNodeId q) const {
    return internal_stack::HeadOrEnd(streams_[static_cast<size_t>(q)]);
  }
  /// End of the current element's subtree (+infinity when exhausted).
  xml::NodeId CurrentEnd(QueryNodeId q) const {
    return Exhausted(q) ? kStreamEnd
                        : document_.node(Current(q)).subtree_end;
  }
  void Advance(QueryNodeId q) { streams_[static_cast<size_t>(q)].Next(); }

  /// True when every leaf stream in q's subtree is exhausted.
  bool End(QueryNodeId q) const {
    const QueryNode& node = query_.node(q);
    if (node.children.empty()) return Exhausted(q);
    for (QueryNodeId child : node.children) {
      if (!End(child)) return false;
    }
    return true;
  }

  /// The getNext of the TwigStack paper: returns a query node in q's
  /// subtree whose head element is guaranteed to have a descendant
  /// extension for every ancestor-descendant sub-edge. Dead subtrees —
  /// those whose leaf streams are all exhausted, so no *future* element
  /// can create a new path solution for them — are masked out; without
  /// this, exhausting one branch would wedge or terminate the whole run
  /// while sibling branches still have solutions to emit.
  /// Must only be called on a live (non-End) node; the returned node
  /// always has a valid head element.
  QueryNodeId GetNext(QueryNodeId q) {
    const QueryNode& node = query_.node(q);
    if (node.children.empty()) return q;
    QueryNodeId n_min = kInvalidQueryNode;
    QueryNodeId n_max = kInvalidQueryNode;
    for (QueryNodeId child : node.children) {
      if (End(child)) continue;  // dead branch
      QueryNodeId n = GetNext(child);
      if (n != child) return n;
      if (n_min == kInvalidQueryNode || Current(child) < Current(n_min)) {
        n_min = child;
      }
      if (n_max == kInvalidQueryNode || Current(child) > Current(n_max)) {
        n_max = child;
      }
    }
    CHECK(n_min != kInvalidQueryNode) << "GetNext on dead subtree";
    // Skip q's elements that end before the latest live child head begins
    // — they cannot contain all child heads.
    const xml::NodeId latest = Current(n_max);
    if (CurrentEnd(q) < latest) {
      streams_[static_cast<size_t>(q)].SeekGE(TopmostHolder(q, latest));
      while (CurrentEnd(q) < latest) Advance(q);
    }
    if (Current(q) < Current(n_min)) return q;
    return n_min;
  }

  /// The topmost node on `t`'s ancestor-or-self chain that q's stream
  /// could hold (q's tag, or any element for "*"); `t` when there is
  /// none. Every stream element before it ends before `t`: one that did
  /// not would be a higher ancestor of `t` with q's tag.
  xml::NodeId TopmostHolder(QueryNodeId q, xml::NodeId t) const {
    const xml::TagId tag = stream_tags_[static_cast<size_t>(q)];
    xml::NodeId topmost = t;
    for (xml::NodeId x = t; x != xml::kInvalidNodeId;
         x = document_.node(x).parent) {
      const xml::Document::Node& node = document_.node(x);
      if (tag == kAnyElement ? node.kind == xml::NodeKind::kElement
                             : node.tag == tag) {
        topmost = x;
      }
    }
    return topmost;
  }

  void MoveStreamToStack(QueryNodeId q) {
    QueryNodeId parent = query_.node(q).parent;
    internal_stack::PushStackEntry(
        document_, &stacks_[static_cast<size_t>(q)], Current(q),
        parent == kInvalidQueryNode ? nullptr
                                    : &stacks_[static_cast<size_t>(parent)]);
    Advance(q);
  }

  const xml::Document& document_;
  const TwigQuery& query_;
  EvalContext* ctx_;
  std::vector<CandidateStream> streams_;
  std::vector<xml::TagId> stream_tags_;  // q's tag; kAnyElement for "*"
  std::vector<Stack> stacks_;
  std::vector<std::vector<QueryNodeId>> paths_;
  std::vector<int> path_of_leaf_;
  std::vector<SolutionTable> path_solutions_;
  std::vector<xml::NodeId> emit_scratch_;
};

}  // namespace

QueryResult TwigStackEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx) {
  EvalContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  return TwigStackRun(indexed, query, ctx).Run();
}

}  // namespace lotusx::twig
