#include "twig/path_stack.h"

#include <algorithm>

#include "common/timer.h"
#include "twig/candidates.h"
#include "twig/path_merge.h"
#include "twig/stack_common.h"

namespace lotusx::twig {

namespace {
using internal_stack::CleanStack;
using internal_stack::Stack;
}  // namespace

StatusOr<QueryResult> PathStackEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx) {
  if (!query.IsPath()) {
    return Status::InvalidArgument(
        "PathStack handles path queries only; use TwigStack or TJFast");
  }
  EvalContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  Timer timer;
  const xml::Document& document = indexed.document();
  QueryResult result;
  result.stats.algorithm = "pathstack";

  std::vector<CandidateStream> streams;
  streams.reserve(static_cast<size_t>(query.size()));
  std::vector<Stack> stacks(static_cast<size_t>(query.size()));
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    streams.push_back(OpenCandidates(indexed, query, q, ctx));
  }
  // Every query node binds in every match: an empty stream means an
  // empty answer.
  if (std::any_of(streams.begin(), streams.end(),
                  [](const CandidateStream& s) { return s.AtEnd(); })) {
    result.stats.candidates_scanned = ElementsRead(streams);
    FillPostingStats(*ctx, &result.stats);
    result.stats.elapsed_ms = timer.ElapsedMillis();
    return result;
  }
  const std::vector<std::vector<QueryNodeId>> paths = query.RootToLeafPaths();
  const std::vector<QueryNodeId>& path = paths.front();
  QueryNodeId leaf = path.back();
  std::vector<SolutionTable> solutions(1);
  solutions[0].stride = path.size();
  std::vector<xml::NodeId> emit_scratch;

  while (true) {
    // qmin: node whose head element is earliest in document order.
    QueryNodeId qmin = kInvalidQueryNode;
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      if (streams[static_cast<size_t>(q)].AtEnd()) continue;
      if (qmin == kInvalidQueryNode ||
          streams[static_cast<size_t>(q)].Key() <
              streams[static_cast<size_t>(qmin)].Key()) {
        qmin = q;
      }
    }
    if (qmin == kInvalidQueryNode) break;
    xml::NodeId element = streams[static_cast<size_t>(qmin)].Key();
    streams[static_cast<size_t>(qmin)].Next();

    // Close every stack entry that ends before this element starts.
    for (Stack& stack : stacks) CleanStack(document, &stack, element);

    QueryNodeId parent = query.node(qmin).parent;
    // An element whose parent stack is empty cannot extend to the root;
    // neither can any later one before the parent stream's head.
    if (parent != kInvalidQueryNode &&
        stacks[static_cast<size_t>(parent)].empty()) {
      internal_stack::SkipPastUnreachable(
          &streams[static_cast<size_t>(qmin)], element,
          streams[static_cast<size_t>(parent)]);
      continue;
    }
    internal_stack::PushStackEntry(
        document, &stacks[static_cast<size_t>(qmin)], element,
        parent == kInvalidQueryNode ? nullptr
                                    : &stacks[static_cast<size_t>(parent)]);
    if (qmin == leaf) {
      internal_stack::EmitPathSolutions(
          document, query, path, stacks,
          static_cast<int>(stacks[static_cast<size_t>(leaf)].size()) - 1,
          &emit_scratch, &solutions[0]);
      stacks[static_cast<size_t>(leaf)].pop_back();
    }
  }

  result.stats.intermediate_tuples = solutions[0].num_rows();
  // The one-path merge: orders the rows (when they arrived out of order)
  // and materializes them as matches, with no join.
  result.matches = MergePathSolutions(query, paths, solutions, nullptr);
  result.stats.matches = result.matches.size();
  result.stats.candidates_scanned = ElementsRead(streams);
  FillPostingStats(*ctx, &result.stats);
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace lotusx::twig
