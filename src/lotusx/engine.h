#ifndef LOTUSX_LOTUSX_ENGINE_H_
#define LOTUSX_LOTUSX_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "autocomplete/completion.h"
#include "common/metrics.h"
#include "common/status_or.h"
#include "common/thread_pool.h"
#include "index/indexed_document.h"
#include "keyword/keyword_search.h"
#include "lotusx/query_cache.h"
#include "session/search.h"
#include "session/session.h"

namespace lotusx {

/// One tag-completion request of Engine::CompleteTagBatch.
struct TagBatchRequest {
  twig::TwigQuery query;
  autocomplete::TagRequest request;
};

/// The LotusX engine: the public facade of this library, owning one
/// indexed XML document and exposing the paper's four capabilities —
/// position-aware auto-completion, twig query evaluation (including
/// order-sensitive queries), result ranking, and query rewriting.
///
/// Quickstart:
///   auto engine = lotusx::Engine::FromXmlFile("dblp.xml");
///   auto hits = engine->Search("//article[author[~\"lu\"]]/title");
///   for (const auto& hit : hits->results)
///     std::cout << engine->Snippet(hit.output) << "\n";
///
/// Threading: the index is immutable after construction, so every const
/// member (Search, CompleteTag, CompleteValue, KeywordSearch, Snippet,
/// MaterializeResults, ...) is safe to call concurrently from any number
/// of threads sharing one Engine — including with the result cache
/// enabled, which is a sharded, internally locked structure (its lock
/// discipline is compiler-checked via the annotations in
/// common/sync.h — see docs/DEVELOPMENT.md "Lock discipline"). The two
/// setup calls (EnableResultCache) and move construction/assignment are
/// NOT synchronized: configure the engine first, then share it. See
/// docs/DEVELOPMENT.md ("Threading model").
class Engine {
 public:
  /// Builds an engine from XML text / a file / a saved index image.
  static StatusOr<Engine> FromXmlText(std::string_view xml);
  static StatusOr<Engine> FromXmlFile(const std::string& path);
  static StatusOr<Engine> FromIndexFile(const std::string& path);

  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;

  /// Persists the index for FromIndexFile.
  Status SaveIndex(const std::string& path) const;

  /// Full index audit: runs every component's ValidateInvariants (see
  /// index::IndexedDocument::ValidateInvariants), including the deep
  /// term-index recount. Returns Corruption naming the first violated
  /// invariant. Exposed for tests, the stress suite, and the examples'
  /// --validate mode; cost is comparable to rebuilding the index.
  Status ValidateIndex() const { return indexed_->ValidateInvariants(); }

  const index::IndexedDocument& indexed() const { return *indexed_; }
  const xml::Document& document() const { return indexed_->document(); }

  /// Parses the textual twig syntax (see twig/query_parser.h) and runs
  /// the search pipeline (session/search.h): evaluates, rewrites on empty
  /// results when enabled, and ranks, through the result cache when one
  /// is enabled.
  StatusOr<SearchResult> Search(std::string_view query_text,
                                const SearchOptions& options = {}) const;
  /// Same for an already-built query.
  StatusOr<SearchResult> Search(const twig::TwigQuery& query,
                                const SearchOptions& options = {}) const;

  /// Evaluates `queries` (textual twig syntax) and returns one result per
  /// query, in order. With a pool, the batch is split into
  /// pool->num_threads() contiguous chunks fanned across the workers;
  /// with pool == nullptr it runs sequentially on the caller's thread
  /// (the single-threaded oracle the tests compare against). When
  /// `per_chunk_stats` is non-null it is replaced with one aggregated
  /// EvalStats per chunk (counters summed over the chunk's queries,
  /// elapsed_ms the chunk's wall time) — the per-thread view of where
  /// evaluation work went.
  std::vector<StatusOr<SearchResult>> SearchBatch(
      const std::vector<std::string>& queries,
      const SearchOptions& options = {}, ThreadPool* pool = nullptr,
      std::vector<twig::EvalStats>* per_chunk_stats = nullptr) const;

  /// EXPLAIN: plans the query with the cost-based planner
  /// (twig/plan/physical_plan.h), executes the plan, and renders the
  /// operator tree with per-operator estimated vs actual cardinalities
  /// and timings. Bypasses the result cache — the point is to watch the
  /// plan run. options.eval maps to planner hints exactly as in Search.
  StatusOr<std::string> Explain(std::string_view query_text,
                                const SearchOptions& options = {}) const;
  StatusOr<std::string> Explain(const twig::TwigQuery& query,
                                const SearchOptions& options = {}) const;

  /// Batch counterpart of CompleteTag with the same fan-out contract as
  /// SearchBatch.
  std::vector<StatusOr<std::vector<autocomplete::Candidate>>>
  CompleteTagBatch(const std::vector<TagBatchRequest>& requests,
                   ThreadPool* pool = nullptr) const;

  /// Position-aware tag completion (see autocomplete/completion.h).
  StatusOr<std::vector<autocomplete::Candidate>> CompleteTag(
      const twig::TwigQuery& query,
      const autocomplete::TagRequest& request) const {
    return completion_->CompleteTag(query, request);
  }
  StatusOr<std::vector<autocomplete::Candidate>> CompleteValue(
      const twig::TwigQuery& query, twig::QueryNodeId node,
      std::string_view prefix, size_t limit = 10,
      bool position_aware = true) const {
    return completion_->CompleteValue(query, node, prefix, limit,
                                      position_aware);
  }

  /// Schema-free keyword search with SLCA semantics (see
  /// keyword/keyword_search.h) — the zero-knowledge entry point.
  StatusOr<std::vector<keyword::KeywordHit>> KeywordSearch(
      std::string_view keywords, size_t limit = 20) const {
    keyword::KeywordSearchOptions options;
    options.limit = limit;
    return keyword::SlcaSearch(*indexed_, keywords, options);
  }

  /// Enables a sharded LRU cache of Search results with the given total
  /// capacity (entries never go stale: the index is immutable). Pass 0 to
  /// disable. The cache's per-shard hit/miss/eviction counters are wired
  /// into the process-wide metrics registry
  /// (lotusx_cache_*_total{shard="i"}). Setup call: not synchronized
  /// against concurrent Search — call it before sharing the engine
  /// across threads.
  void EnableResultCache(size_t capacity);
  /// Cache statistics; zeros when disabled.
  uint64_t cache_hits() const { return cache_ ? cache_->hits() : 0; }
  uint64_t cache_misses() const { return cache_ ? cache_->misses() : 0; }

  /// Point-in-time copy of the process-wide metrics registry — search
  /// QPS/latency, per-stage timings, cache and thread-pool counters,
  /// per-operator execution totals. This is what the STATS protocol verb
  /// renders; embedders can export it to their own monitoring. Safe to
  /// call concurrently with serving traffic.
  metrics::MetricsSnapshot MetricsSnapshot() const {
    return metrics::Registry::Default().Snapshot();
  }

  /// A fresh interactive canvas session over this engine's document.
  session::Session NewSession(session::SessionOptions options = {}) const {
    return session::Session(*indexed_, std::move(options));
  }

  /// One-line XML rendering of a result node (for display), truncated to
  /// `max_chars`; a truncated rendering ends in "..." when max_chars >= 3.
  std::string Snippet(xml::NodeId node, size_t max_chars = 120) const;

  /// Materializes ranked answers as an XML document:
  ///   <results query="..."><result rank="1" score="...">subtree</result>
  ///   ...</results>
  /// `max_results` bounds the output (0 = all). The output re-parses with
  /// this library's own parser (tested) — the machine-readable export of
  /// a search.
  std::string MaterializeResults(const SearchResult& result,
                                 size_t max_results = 0) const;

 private:
  explicit Engine(index::IndexedDocument indexed);

  // unique_ptr keeps Engine movable while engines hold references into
  // the index.
  std::unique_ptr<index::IndexedDocument> indexed_;
  std::unique_ptr<autocomplete::CompletionEngine> completion_;
  // mutable: Search() is logically const; the cache is an optimization
  // and is internally synchronized (sharded locks + atomic counters).
  mutable std::unique_ptr<ShardedLruCache<SearchResult>> cache_;
};

}  // namespace lotusx

#endif  // LOTUSX_LOTUSX_ENGINE_H_
