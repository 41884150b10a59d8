#include "lotusx/engine.h"

#include <algorithm>
#include <cstdio>
#include <latch>
#include <utility>

#include "common/timer.h"
#include "common/trace.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"
#include "xml/dom_builder.h"
#include "xml/escape.h"
#include "xml/writer.h"

namespace lotusx {

Engine::Engine(index::IndexedDocument indexed)
    : indexed_(std::make_unique<index::IndexedDocument>(std::move(indexed))) {
  completion_ = std::make_unique<autocomplete::CompletionEngine>(*indexed_);
}

StatusOr<Engine> Engine::FromXmlText(std::string_view xml) {
  LOTUSX_ASSIGN_OR_RETURN(xml::Document document, xml::ParseDocument(xml));
  return Engine(index::IndexedDocument(std::move(document)));
}

StatusOr<Engine> Engine::FromXmlFile(const std::string& path) {
  LOTUSX_ASSIGN_OR_RETURN(xml::Document document,
                          xml::ParseDocumentFile(path));
  return Engine(index::IndexedDocument(std::move(document)));
}

StatusOr<Engine> Engine::FromIndexFile(const std::string& path) {
  LOTUSX_ASSIGN_OR_RETURN(index::IndexedDocument indexed,
                          index::IndexedDocument::LoadFrom(path));
  return Engine(std::move(indexed));
}

Status Engine::SaveIndex(const std::string& path) const {
  return indexed_->SaveTo(path);
}

StatusOr<SearchResult> Engine::Search(std::string_view query_text,
                                      const SearchOptions& options) const {
  // Own the trace here so the parse stage lands in the same per-query
  // breakdown as the evaluation stages recorded by the overload below.
  trace::QueryTrace query_trace("engine");
  // Only a root's query text is read (a batch chunk's search is nested).
  if (metrics::Enabled() && query_trace.root() == &query_trace) {
    query_trace.set_query(std::string(query_text));
  }
  StatusOr<twig::TwigQuery> query = [&] {
    trace::StageSpan span(trace::Stage::kParse);
    return twig::ParseQuery(query_text);
  }();
  if (!query.ok()) {
    CountFailedSearch();
    return query.status();
  }
  return Search(*query, options);
}

void Engine::EnableResultCache(size_t capacity) {
  cache_ = capacity == 0
               ? nullptr
               : std::make_unique<ShardedLruCache<SearchResult>>(
                     capacity, ShardedLruCache<SearchResult>::kDefaultShards,
                     &metrics::Registry::Default(), "lotusx_cache");
}

StatusOr<SearchResult> Engine::Search(const twig::TwigQuery& query,
                                      const SearchOptions& options) const {
  return RunSearch(*indexed_, query, options, cache_.get());
}

StatusOr<std::string> Engine::Explain(std::string_view query_text,
                                      const SearchOptions& options) const {
  LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query,
                          twig::ParseQuery(query_text));
  return Explain(query, options);
}

StatusOr<std::string> Engine::Explain(const twig::TwigQuery& query,
                                      const SearchOptions& options) const {
  return twig::plan::ExplainQuery(*indexed_, query, options.eval);
}

namespace {

/// Fans `chunk_fn(0..num_chunks)` across `pool` and waits for all chunks;
/// runs them inline on the caller's thread when pool is null (or refuses
/// submissions because it is shutting down).
void RunChunks(ThreadPool* pool, size_t num_chunks,
               const std::function<void(size_t)>& chunk_fn) {
  // Pool workers do not inherit the submitter's thread-local
  // QueryTrace, so capture it at fan-out and adopt it inside every
  // chunk: stage times and spans from worker threads then land in the
  // parent request's breakdown (the batch query's SLOWLOG entry shows
  // join/rank work done on workers). RunChunks joins before returning,
  // so the parent trace outlives every adoption.
  trace::QueryTrace* parent = trace::QueryTrace::Current();
  const auto run_chunk = [&chunk_fn, parent](size_t chunk) {
    trace::QueryTrace::Adoption adopt(parent);
    trace::NamedSpan span("chunk");
    chunk_fn(chunk);
  };
  if (pool == nullptr || num_chunks <= 1) {
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
    return;
  }
  std::latch done(static_cast<ptrdiff_t>(num_chunks));
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const bool submitted = pool->Submit([&run_chunk, &done, chunk] {
      run_chunk(chunk);
      done.count_down();
    });
    if (!submitted) {
      run_chunk(chunk);
      done.count_down();
    }
  }
  done.wait();
}

/// Contiguous [begin, end) of chunk `chunk` when `total` items split into
/// `num_chunks` near-equal pieces.
std::pair<size_t, size_t> ChunkRange(size_t total, size_t num_chunks,
                                     size_t chunk) {
  const size_t begin = total * chunk / num_chunks;
  const size_t end = total * (chunk + 1) / num_chunks;
  return {begin, end};
}

}  // namespace

std::vector<StatusOr<SearchResult>> Engine::SearchBatch(
    const std::vector<std::string>& queries, const SearchOptions& options,
    ThreadPool* pool, std::vector<twig::EvalStats>* per_chunk_stats) const {
  std::vector<StatusOr<SearchResult>> results(queries.size());
  const size_t num_chunks =
      pool == nullptr ? 1 : std::min(pool->num_threads(), queries.size());
  if (metrics::Enabled()) {
    static metrics::Counter* chunks = metrics::Registry::Default().GetCounter(
        "lotusx_batch_chunks_total", {{"kind", "search"}});
    chunks->Increment(std::max<size_t>(num_chunks, 1));
  }
  std::vector<twig::EvalStats> chunk_stats(std::max<size_t>(num_chunks, 1));
  RunChunks(pool, num_chunks, [&](size_t chunk) {
    const auto [begin, end] = ChunkRange(queries.size(), num_chunks, chunk);
    twig::EvalStats& stats = chunk_stats[chunk];
    stats.algorithm = "batch";
    Timer timer;
    for (size_t i = begin; i < end; ++i) {
      results[i] = Search(queries[i], options);
      if (results[i].ok()) {
        const twig::EvalStats& s = results[i]->stats;
        stats.candidates_scanned += s.candidates_scanned;
        stats.intermediate_tuples += s.intermediate_tuples;
        stats.matches += s.matches;
      }
    }
    stats.elapsed_ms = timer.ElapsedMillis();
  });
  if (per_chunk_stats != nullptr) *per_chunk_stats = std::move(chunk_stats);
  return results;
}

std::vector<StatusOr<std::vector<autocomplete::Candidate>>>
Engine::CompleteTagBatch(const std::vector<TagBatchRequest>& requests,
                         ThreadPool* pool) const {
  std::vector<StatusOr<std::vector<autocomplete::Candidate>>> results(
      requests.size());
  const size_t num_chunks =
      pool == nullptr ? 1 : std::min(pool->num_threads(), requests.size());
  if (metrics::Enabled()) {
    static metrics::Counter* chunks = metrics::Registry::Default().GetCounter(
        "lotusx_batch_chunks_total", {{"kind", "complete_tag"}});
    chunks->Increment(std::max<size_t>(num_chunks, 1));
  }
  RunChunks(pool, num_chunks, [&](size_t chunk) {
    const auto [begin, end] = ChunkRange(requests.size(), num_chunks, chunk);
    for (size_t i = begin; i < end; ++i) {
      results[i] = CompleteTag(requests[i].query, requests[i].request);
    }
  });
  return results;
}

std::string Engine::MaterializeResults(const SearchResult& result,
                                        size_t max_results) const {
  trace::StageSpan span(trace::Stage::kSerialize);
  const xml::Document& document = indexed_->document();
  std::string out = "<results query=\"" +
                    xml::EscapeAttribute(result.executed_query.ToString()) +
                    "\">\n";
  size_t count = 0;
  for (const ranking::RankedResult& hit : result.results) {
    if (max_results > 0 && count >= max_results) break;
    ++count;
    char score[32];
    std::snprintf(score, sizeof(score), "%.4f", hit.score);
    out += "  <result rank=\"" + std::to_string(count) + "\" score=\"" +
           score + "\">";
    const xml::Document::Node& node = document.node(hit.output);
    if (node.kind == xml::NodeKind::kElement) {
      out += xml::WriteXml(document, hit.output,
                           xml::WriterOptions{.declaration = false});
    } else {
      // Attribute output: render as an element carrying the value.
      out += "<attribute name=\"" +
             xml::EscapeAttribute(document.TagName(hit.output).substr(1)) +
             "\">" + xml::EscapeText(document.Value(hit.output)) +
             "</attribute>";
    }
    out += "</result>\n";
  }
  out += "</results>\n";
  return out;
}

std::string Engine::Snippet(xml::NodeId node, size_t max_chars) const {
  const xml::Document& document = indexed_->document();
  std::string rendered;
  if (document.node(node).kind == xml::NodeKind::kText) {
    rendered = std::string(document.Value(node));
  } else if (document.node(node).kind == xml::NodeKind::kAttribute) {
    rendered = std::string(document.TagName(node)) + "=\"" +
               std::string(document.Value(node)) + "\"";
  } else {
    rendered =
        xml::WriteXml(document, node, xml::WriterOptions{.declaration = false});
  }
  if (rendered.size() > max_chars) {
    // The ellipsis only when it fits; a budget under three characters
    // gets a bare prefix.
    const size_t ellipsis = max_chars >= 3 ? 3 : 0;
    rendered.resize(max_chars - ellipsis);
    rendered.append(ellipsis, '.');
  }
  return rendered;
}

}  // namespace lotusx
