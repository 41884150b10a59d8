#include "session/session.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_export.h"

namespace lotusx::session {

Session::Session(const index::IndexedDocument& indexed,
                 SessionOptions options)
    : indexed_(indexed),
      options_(std::move(options)),
      completion_(indexed) {}

StatusOr<std::vector<autocomplete::Candidate>> Session::SuggestTags(
    CanvasNodeId anchor, twig::Axis axis, std::string_view prefix) const {
  autocomplete::TagRequest request;
  request.axis = axis;
  request.prefix = std::string(prefix);
  request.limit = options_.completion_limit;

  if (canvas_.empty() || anchor == 0) {
    return completion_.CompleteTag(twig::TwigQuery(), request);
  }
  if (canvas_.FindNode(anchor) == nullptr) {
    return Status::NotFound("no canvas node " + std::to_string(anchor));
  }
  std::map<CanvasNodeId, twig::QueryNodeId> mapping;
  StatusOr<twig::TwigQuery> compiled = canvas_.Compile(&mapping);
  if (!compiled.ok()) {
    // Canvas not yet compilable (e.g., another box is still untagged):
    // degrade to global completion rather than blocking the user.
    request.position_aware = false;
    return completion_.CompleteTag(twig::TwigQuery(), request);
  }
  request.anchor = mapping.at(anchor);
  return completion_.CompleteTag(*compiled, request);
}

StatusOr<std::vector<autocomplete::Candidate>> Session::SuggestValues(
    CanvasNodeId id, std::string_view prefix) const {
  if (canvas_.FindNode(id) == nullptr) {
    return Status::NotFound("no canvas node " + std::to_string(id));
  }
  std::map<CanvasNodeId, twig::QueryNodeId> mapping;
  StatusOr<twig::TwigQuery> compiled = canvas_.Compile(&mapping);
  if (!compiled.ok()) {
    // Global term completion as the fallback.
    twig::TwigQuery any;
    any.AddRoot("*");
    return completion_.CompleteValue(any, 0, prefix,
                                     options_.completion_limit,
                                     /*position_aware=*/false);
  }
  return completion_.CompleteValue(*compiled, mapping.at(id), prefix,
                                   options_.completion_limit,
                                   /*position_aware=*/true);
}

StatusOr<SearchResult> Session::Run() const {
  // One trace per canvas run: the pipeline's fingerprint and the
  // planner/executor stage spans inside it attach to it (see
  // common/trace.h).
  trace::QueryTrace query_trace("session");
  StatusOr<twig::TwigQuery> compiled = [&] {
    trace::StageSpan span(trace::Stage::kParse);
    return canvas_.Compile();
  }();
  if (!compiled.ok()) {
    CountFailedSearch();
    return compiled.status();
  }
  // Only a root's query text is ever read (over TCP the "net" root
  // carries the command line), so skip rendering it otherwise.
  if (query_trace.root() == &query_trace && metrics::Enabled()) {
    query_trace.set_query(compiled->ToString());
  }
  const SearchOptions options{.eval = {},
                              .ranking = options_.ranking,
                              .rewrite_on_empty = options_.rewrite_on_empty,
                              .rewrite = options_.rewrite};
  LOTUSX_ASSIGN_OR_RETURN(SearchResult result,
                          RunSearch(indexed_, *compiled, options));
  const std::string executed = result.executed_query.ToString();
  if (executed_queries_.num_keys() < kMaxHistoryQueries ||
      executed_queries_.Contains(executed)) {
    executed_queries_.Insert(executed);
  }
  return result;
}

StatusOr<std::vector<keyword::KeywordHit>> Session::FindKeywords(
    std::string_view keywords) const {
  return keyword::SlcaSearch(indexed_, keywords);
}

StatusOr<std::string> Session::ExplainCanvas() const {
  LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query, canvas_.Compile());
  // Plan-based EXPLAIN: runs the query and renders the operator tree with
  // estimated vs actual per-operator cardinalities.
  return twig::plan::ExplainQuery(indexed_, query);
}

StatusOr<std::string> Session::CanvasToXPath() const {
  LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query, canvas_.Compile());
  return twig::ToXPath(query);
}

StatusOr<std::string> Session::CanvasToXQuery() const {
  LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query, canvas_.Compile());
  return twig::ToXQuery(query);
}

std::vector<std::string> Session::QueryHistory(std::string_view prefix,
                                               size_t limit) const {
  std::vector<std::string> queries;
  for (const index::Completion& completion :
       executed_queries_.Complete(prefix, limit)) {
    queries.push_back(completion.key);
  }
  return queries;
}

void Session::Checkpoint() {
  if (history_.size() == kMaxUndoDepth) history_.pop_front();
  history_.push_back(canvas_);
}

Status Session::Undo() {
  if (history_.empty()) {
    return Status::FailedPrecondition("nothing to undo");
  }
  canvas_ = std::move(history_.back());
  history_.pop_back();
  return Status::OK();
}

}  // namespace lotusx::session
