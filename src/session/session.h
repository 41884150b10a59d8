#ifndef LOTUSX_SESSION_SESSION_H_
#define LOTUSX_SESSION_SESSION_H_

#include <deque>
#include <string>
#include <vector>

#include "autocomplete/completion.h"
#include "common/status_or.h"
#include "index/indexed_document.h"
#include "index/trie.h"
#include "keyword/keyword_search.h"
#include "session/canvas.h"
#include "session/search.h"

namespace lotusx::session {

struct SessionOptions {
  size_t completion_limit = 10;
  /// Fall back to query rewriting when the drawn query has no answers.
  bool rewrite_on_empty = true;
  rewrite::RewriteOptions rewrite;
  /// A canvas run keeps the 20 best answers unless told otherwise.
  ranking::RankingOptions ranking{.top_k = 20};
};

/// One interactive LotusX session: a canvas being edited against an
/// indexed document, with position-aware completion at every step, and
/// execute/rank/rewrite behind Run(). This is the programmatic equivalent
/// of the demo's browser session; the REPL example drives it over a text
/// protocol.
class Session {
 public:
  Session(const index::IndexedDocument& indexed,
          SessionOptions options = {});

  Canvas& canvas() { return canvas_; }
  const Canvas& canvas() const { return canvas_; }
  const SessionOptions& options() const { return options_; }
  const index::IndexedDocument& indexed() const { return indexed_; }

  /// Tag suggestions for a new box connected under `anchor` with `axis`
  /// given the typed `prefix`. anchor == 0 (no box selected) suggests
  /// query-root tags. The current canvas must compile *ignoring* empty
  /// boxes for position context; boxes other than the anchor that are
  /// still untagged make the context unavailable and fall back to global
  /// suggestions.
  StatusOr<std::vector<autocomplete::Candidate>> SuggestTags(
      CanvasNodeId anchor, twig::Axis axis, std::string_view prefix) const;

  /// Value-keyword suggestions for the value editor of box `id`.
  StatusOr<std::vector<autocomplete::Candidate>> SuggestValues(
      CanvasNodeId id, std::string_view prefix) const;

  /// Compiles the canvas and runs it through the search pipeline
  /// (session/search.h): executes, (when enabled and the result set is
  /// empty) rewrites, and ranks. The query that ran joins the history.
  StatusOr<SearchResult> Run() const;

  /// Schema-free SLCA keyword search over the session's document; the
  /// FIND protocol command. Results let the user discover structure
  /// before drawing any box.
  StatusOr<std::vector<keyword::KeywordHit>> FindKeywords(
      std::string_view keywords) const;

  /// EXPLAIN for the compiled canvas query: plans it with the cost-based
  /// planner, executes the plan, and renders the operator tree with
  /// per-operator estimated vs actual cardinalities
  /// (twig/plan/physical_plan.h).
  StatusOr<std::string> ExplainCanvas() const;
  /// W3C XPath / XQuery exports of the compiled canvas query.
  StatusOr<std::string> CanvasToXPath() const;
  StatusOr<std::string> CanvasToXQuery() const;

  /// Distinct queries the history keeps. Past it, only queries already in
  /// the history gain weight, so one long-lived connection cannot grow
  /// the server's memory without bound.
  static constexpr size_t kMaxHistoryQueries = 1024;

  /// Previously executed queries matching `prefix`, most frequent first —
  /// the search-box history dropdown.
  std::vector<std::string> QueryHistory(std::string_view prefix,
                                        size_t limit = 5) const;

  /// Canvas snapshots the undo stack keeps. PARSE, EXAMPLE and
  /// LOADCANVAS checkpoint on every call, so past it the oldest snapshot
  /// is dropped: one long-lived connection cannot grow the server's
  /// memory without bound.
  static constexpr size_t kMaxUndoDepth = 64;

  /// Snapshot / undo support: the canvas state stack, newest
  /// kMaxUndoDepth states.
  void Checkpoint();
  Status Undo();
  size_t undo_depth() const { return history_.size(); }

 private:
  const index::IndexedDocument& indexed_;
  SessionOptions options_;
  Canvas canvas_;
  autocomplete::CompletionEngine completion_;
  std::deque<Canvas> history_;
  // Run() is logically const; recording executed queries is bookkeeping.
  mutable index::Trie executed_queries_;
};

}  // namespace lotusx::session

#endif  // LOTUSX_SESSION_SESSION_H_
