#ifndef LOTUSX_SESSION_SEARCH_H_
#define LOTUSX_SESSION_SEARCH_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "index/indexed_document.h"
#include "ranking/ranker.h"
#include "rewrite/rewriter.h"
#include "twig/evaluator.h"

namespace lotusx {

template <typename Value>
class ShardedLruCache;

/// Options of one search: Engine::Search's argument, and what a canvas
/// Session derives from its SessionOptions for every Run.
struct SearchOptions {
  twig::EvalOptions eval;
  ranking::RankingOptions ranking;
  /// Invoke the rewriter when the query returns no matches.
  bool rewrite_on_empty = true;
  rewrite::RewriteOptions rewrite;
};

/// Outcome of one search: the query that ultimately ran (the requested
/// one or its rewrite), its ranked answers, engine statistics, and the
/// rewrite chain if one was needed.
struct SearchResult {
  twig::TwigQuery executed_query;
  std::vector<ranking::RankedResult> results;
  twig::EvalStats stats;
  /// Non-empty when the rewriter had to step in.
  std::vector<std::string> rewrites_applied;
  double rewrite_penalty = 0;
};

/// Canonical cache key of one (query, options) search: the query rendering
/// plus every EvalOptions / RewriteOptions / RankingOptions field that can
/// change the result or its recorded statistics. Exposed for the cache-key
/// pinning tests; static_asserts in search.cc force this function (and the
/// tests) to be revisited whenever an option struct grows.
std::string SearchCacheKey(const twig::TwigQuery& query,
                           const SearchOptions& options);

/// The search pipeline every entry point runs — Engine::Search (and so
/// SearchBatch and Collection), the canvas Session's Run, and through it
/// the TCP `RUN` and the REPL: look `query` up in `cache` when one is
/// given, evaluate, rewrite when the result is empty and
/// options.rewrite_on_empty holds, rank, and store the result in the
/// cache. Bumps the lotusx_search_* counters and records exactly one
/// statement-store row (fingerprinting the *requested* query: a rewrite
/// is an execution detail of the same statement). Stamps the
/// fingerprint and the chosen algorithm on the calling thread's
/// QueryTrace; opens an "engine" trace when the thread has none.
StatusOr<SearchResult> RunSearch(
    const index::IndexedDocument& indexed, const twig::TwigQuery& query,
    const SearchOptions& options,
    ShardedLruCache<SearchResult>* cache = nullptr);

/// Counts a search that failed before it had a query to run (a parse or
/// canvas-compile error) in lotusx_search_total and
/// lotusx_search_errors_total. No statement row: there is no shape to
/// fingerprint.
void CountFailedSearch();

}  // namespace lotusx

#endif  // LOTUSX_SESSION_SEARCH_H_
