#include "session/search.h"

#include <bit>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/metrics.h"
#include "common/statement_store.h"
#include "common/timer.h"
#include "common/trace.h"
#include "lotusx/query_cache.h"
#include "twig/fingerprint.h"

namespace lotusx {

namespace {

/// Process-wide serving counters bumped by every search, whichever entry
/// point served it.
struct SearchCounters {
  metrics::Counter* searches;
  metrics::Counter* errors;
  metrics::Counter* results;
  metrics::Counter* rewrites;
};

const SearchCounters& GetSearchCounters() {
  static const SearchCounters counters = [] {
    metrics::Registry& registry = metrics::Registry::Default();
    return SearchCounters{
        registry.GetCounter("lotusx_search_total"),
        registry.GetCounter("lotusx_search_errors_total"),
        registry.GetCounter("lotusx_search_results_total"),
        registry.GetCounter("lotusx_search_rewrites_total")};
  }();
  return counters;
}

/// Lossless double rendering for cache keys: the raw IEEE-754 bits in
/// hex. std::to_string keeps only six decimals, which collapses distinct
/// weights (1.0 vs 1.0000001) onto one key and serves the wrong cached
/// ranking.
std::string DoubleKeyBits(double value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(value)));
  return buffer;
}

}  // namespace

void CountFailedSearch() {
  GetSearchCounters().searches->Increment();
  GetSearchCounters().errors->Increment();
}

// If one of these fires, a field was added to an options struct: decide
// whether it can change a SearchResult (answers, ranking, rewrite chain,
// or the recorded EvalStats), include it in SearchCacheKey below if so,
// extend the pinning test in query_cache_test.cc, and update the pinned
// size. Sizes assume the LP64 Itanium ABI every supported target uses,
// where `eval` and `rewrite_on_empty` each pad to the 8-byte alignment of
// the struct that follows them.
static_assert(sizeof(twig::EvalOptions) == 4,
              "EvalOptions grew: audit SearchCacheKey");
static_assert(sizeof(ranking::RankingOptions) == 32,
              "RankingOptions grew: audit SearchCacheKey");
static_assert(sizeof(rewrite::RewriteOptions) == 32,
              "RewriteOptions grew: audit SearchCacheKey");
static_assert(sizeof(SearchOptions) ==
                  8 + sizeof(ranking::RankingOptions) + 8 +
                      sizeof(rewrite::RewriteOptions),
              "SearchOptions grew: audit SearchCacheKey");

std::string SearchCacheKey(const twig::TwigQuery& query,
                           const SearchOptions& options) {
  std::string key = query.ToString();
  key += '|';
  key += std::to_string(static_cast<int>(options.eval.algorithm));
  key += options.rewrite_on_empty ? 'r' : '-';
  key += '|';
  key += DoubleKeyBits(options.ranking.content_weight) + ',' +
         DoubleKeyBits(options.ranking.structure_weight) + ',' +
         DoubleKeyBits(options.ranking.specificity_weight) + ',' +
         std::to_string(options.ranking.top_k);
  key += '|';
  key += std::to_string(options.rewrite.min_results) + ',' +
         std::to_string(options.rewrite.max_evaluations) + ',' +
         DoubleKeyBits(options.rewrite.max_penalty) + ',';
  key += options.rewrite.relax_axes ? 'a' : '-';
  key += options.rewrite.substitute_tags ? 't' : '-';
  key += options.rewrite.relax_predicates ? 'p' : '-';
  key += options.rewrite.drop_leaves ? 'l' : '-';
  return key;
}

StatusOr<SearchResult> RunSearch(const index::IndexedDocument& indexed,
                                 const twig::TwigQuery& query,
                                 const SearchOptions& options,
                                 ShardedLruCache<SearchResult>* cache) {
  // Reuse the trace the caller (Engine's text overload, a Session, an
  // embedder) already opened on this thread; open our own otherwise.
  std::optional<trace::QueryTrace> owned_trace;
  if (trace::QueryTrace::Current() == nullptr) owned_trace.emplace("engine");
  trace::QueryTrace* query_trace = trace::QueryTrace::Current();
  const bool instrument = metrics::Enabled();
  if (instrument && owned_trace.has_value()) {
    query_trace->set_query(query.ToString());
  }
  GetSearchCounters().searches->Increment();

  // Statement-store feed: fingerprint the shape up front (also stamped
  // on the trace root, so SLOWLOG/CLIENTS can join back to the row),
  // record exactly once at whichever exit this search takes. Both the
  // metrics kill switch and the statements kill switch gate the cost.
  const bool record_statement = instrument && stmt::Enabled();
  uint64_t fingerprint = 0;
  std::string normalized_query;
  Timer statement_timer;
  if (record_statement) {
    fingerprint = twig::FingerprintQuery(query, options.eval).value;
    normalized_query = twig::NormalizedQueryText(query);
    query_trace->set_fingerprint(fingerprint);
  }
  const auto record_execution = [&](bool error, bool cache_hit,
                                    const twig::EvalStats* stats,
                                    uint64_t rows) {
    if (!record_statement) return;
    stmt::ExecutionRecord record;
    record.fingerprint = fingerprint;
    record.query_text = normalized_query;
    record.error = error;
    record.cache_hit = cache_hit;
    record.latency_usec = statement_timer.ElapsedMicros();
    record.rows = rows;
    if (stats != nullptr && !cache_hit) {
      // A cached result replays the original execution's stats; the
      // blocks were decoded once, so only the live execution's I/O and
      // plan choice aggregate.
      record.algorithm = stats->algorithm;
      record.blocks_decoded = stats->posting_blocks_decoded;
      record.blocks_skipped = stats->posting_blocks_skipped;
      record.bytes_decoded = stats->posting_bytes_decoded;
      record.estimated_rows = stats->estimated_matches;
      record.actual_rows = stats->matches;
    }
    stmt::StatementStore::Default().Record(record);
  };

  std::string cache_key;
  if (cache != nullptr) {
    cache_key = SearchCacheKey(query, options);
    if (std::optional<SearchResult> cached = cache->Lookup(cache_key)) {
      if (instrument) {
        query_trace->set_detail("cache-hit");
        GetSearchCounters().results->Increment(cached->results.size());
      }
      record_execution(false, true, nullptr, cached->results.size());
      return *std::move(cached);
    }
  }
  StatusOr<twig::QueryResult> evaluated =
      twig::Evaluate(indexed, query, options.eval);
  if (!evaluated.ok()) {
    GetSearchCounters().errors->Increment();
    record_execution(true, false, nullptr, 0);
    return evaluated.status();
  }
  twig::QueryResult result = *std::move(evaluated);
  SearchResult search;
  search.executed_query = query;
  if (result.matches.empty() && options.rewrite_on_empty) {
    trace::StageSpan span(trace::Stage::kRewrite);
    StatusOr<rewrite::RewriteOutcome> rewritten =
        rewrite::Rewriter(indexed).Rewrite(query, options.rewrite);
    // A failed rewrite search leaves the empty original result.
    if (rewritten.ok()) {
      search.executed_query = rewritten->query;
      search.rewrites_applied = rewritten->applied;
      search.rewrite_penalty = rewritten->penalty;
      result = std::move(rewritten->result);
      GetSearchCounters().rewrites->Increment();
    }
  }
  search.stats = result.stats;
  {
    trace::StageSpan span(trace::Stage::kRank);
    search.results = ranking::Ranker(indexed).Rank(
        search.executed_query, result.matches, options.ranking);
  }
  if (instrument) {
    query_trace->set_detail(search.stats.algorithm);
    GetSearchCounters().results->Increment(search.results.size());
  }
  record_execution(false, false, &search.stats, search.results.size());
  if (cache != nullptr) cache->Insert(cache_key, search);
  return search;
}

}  // namespace lotusx
