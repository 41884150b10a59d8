#include "lotusx/collection.h"

#include <algorithm>

#include "twig/query_parser.h"

namespace lotusx {

Status Collection::AddEngine(const std::string& name, Engine engine) {
  if (name.empty()) return Status::InvalidArgument("empty document name");
  if (engines_.contains(name)) {
    return Status::AlreadyExists("document '" + name + "' already loaded");
  }
  engines_.emplace(name, std::make_unique<Engine>(std::move(engine)));
  return Status::OK();
}

Status Collection::AddXmlText(const std::string& name,
                              std::string_view xml) {
  LOTUSX_ASSIGN_OR_RETURN(Engine engine, Engine::FromXmlText(xml));
  return AddEngine(name, std::move(engine));
}

Status Collection::AddXmlFile(const std::string& name,
                              const std::string& path) {
  LOTUSX_ASSIGN_OR_RETURN(Engine engine, Engine::FromXmlFile(path));
  return AddEngine(name, std::move(engine));
}

Status Collection::AddIndexFile(const std::string& name,
                                const std::string& path) {
  LOTUSX_ASSIGN_OR_RETURN(Engine engine, Engine::FromIndexFile(path));
  return AddEngine(name, std::move(engine));
}

Status Collection::Remove(const std::string& name) {
  if (engines_.erase(name) == 0) {
    return Status::NotFound("document '" + name + "' not loaded");
  }
  return Status::OK();
}

std::vector<std::string> Collection::DocumentNames() const {
  std::vector<std::string> names;
  names.reserve(engines_.size());
  for (const auto& [name, engine] : engines_) names.push_back(name);
  return names;
}

StatusOr<const Engine*> Collection::Find(const std::string& name) const {
  auto it = engines_.find(name);
  if (it == engines_.end()) {
    return Status::NotFound("document '" + name + "' not loaded");
  }
  return static_cast<const Engine*>(it->second.get());
}

StatusOr<CollectionSearchResult> Collection::Search(
    std::string_view query_text, size_t top_k,
    const SearchOptions& options) const {
  LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query,
                          twig::ParseQuery(query_text));
  // A document contributes at most `top_k` hits to the merged top k, so
  // each engine ranks only that many.
  SearchOptions bounded = options;
  size_t& engine_top_k = bounded.ranking.top_k;
  if (top_k > 0 && (engine_top_k == 0 || top_k < engine_top_k)) {
    engine_top_k = top_k;
  }
  // First pass without rewriting: a query aimed at one document must not
  // be "repaired" into noise on the others. Rewriting kicks in (second
  // pass) only when NO document answers the query as drawn.
  SearchOptions strict = bounded;
  strict.rewrite_on_empty = false;
  CollectionSearchResult merged;
  bool any_hits = false;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [name, engine] : engines_) {
      LOTUSX_ASSIGN_OR_RETURN(SearchResult result,
                              engine->Search(query, pass == 0 ? strict
                                                              : bounded));
      if (!result.rewrites_applied.empty()) {
        merged.rewrites.emplace(name, result.rewrites_applied);
      }
      for (ranking::RankedResult& hit : result.results) {
        merged.hits.push_back(CollectionHit{name, std::move(hit)});
        any_hits = true;
      }
    }
    if (any_hits || !options.rewrite_on_empty) break;
  }
  std::sort(merged.hits.begin(), merged.hits.end(),
            [](const CollectionHit& a, const CollectionHit& b) {
              if (a.result.score != b.result.score) {
                return a.result.score > b.result.score;
              }
              if (a.document_name != b.document_name) {
                return a.document_name < b.document_name;
              }
              if (a.result.output != b.result.output) {
                return a.result.output < b.result.output;
              }
              return a.result.match < b.result.match;
            });
  if (top_k > 0 && merged.hits.size() > top_k) merged.hits.resize(top_k);
  return merged;
}

StatusOr<std::vector<autocomplete::Candidate>> Collection::CompleteTag(
    const twig::TwigQuery& query,
    const autocomplete::TagRequest& request) const {
  std::map<std::string, uint64_t> weights;
  for (const auto& [name, engine] : engines_) {
    LOTUSX_ASSIGN_OR_RETURN(std::vector<autocomplete::Candidate> candidates,
                            engine->CompleteTag(query, request));
    for (const autocomplete::Candidate& candidate : candidates) {
      weights[candidate.text] += candidate.frequency;
    }
  }
  std::vector<autocomplete::Candidate> merged;
  for (const auto& [text, weight] : weights) {
    merged.push_back(autocomplete::Candidate{
        text, weight, autocomplete::CandidateKind::kTag});
  }
  std::sort(merged.begin(), merged.end(),
            [](const autocomplete::Candidate& a,
               const autocomplete::Candidate& b) {
              if (a.frequency != b.frequency) {
                return a.frequency > b.frequency;
              }
              return a.text < b.text;
            });
  if (merged.size() > request.limit) merged.resize(request.limit);
  return merged;
}

}  // namespace lotusx
