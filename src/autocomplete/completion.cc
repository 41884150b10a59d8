#include "autocomplete/completion.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "twig/schema_match.h"

namespace lotusx::autocomplete {

namespace {

using index::DataGuide;
using index::PathId;
using twig::Axis;
using twig::QueryNodeId;
using twig::TwigQuery;

/// RAII request metrics for one completion call: bumps
/// lotusx_complete_total{kind} and records the wall time into
/// lotusx_complete_latency_usec{kind}. Covers every entry point (Engine,
/// Session, batches) because they all funnel through CompletionEngine.
class CompletionScope {
 public:
  explicit CompletionScope(const char* kind) {
    if (!metrics::Enabled()) return;
    metrics::Registry& registry = metrics::Registry::Default();
    const metrics::Labels labels = {{"kind", kind}};
    calls_ = registry.GetCounter("lotusx_complete_total", labels);
    latency_ = registry.GetHistogram("lotusx_complete_latency_usec", labels);
  }
  ~CompletionScope() {
    if (calls_ == nullptr) return;
    calls_->Increment();
    latency_->Observe(timer_.ElapsedMicros());
  }

  CompletionScope(const CompletionScope&) = delete;
  CompletionScope& operator=(const CompletionScope&) = delete;

 private:
  metrics::Counter* calls_ = nullptr;
  metrics::Histogram* latency_ = nullptr;
  Timer timer_;
};

}  // namespace

std::vector<Candidate> CompletionEngine::GlobalTagCandidates(
    std::string_view prefix, size_t limit) const {
  std::vector<Candidate> candidates;
  for (const index::Completion& completion :
       indexed_.tag_trie().Complete(prefix, limit)) {
    candidates.push_back(
        Candidate{completion.key, completion.weight, CandidateKind::kTag});
  }
  return candidates;
}

StatusOr<std::vector<Candidate>> CompletionEngine::CompleteTag(
    const TwigQuery& query, const TagRequest& request) const {
  CompletionScope scope("tag");
  if (request.limit == 0) return std::vector<Candidate>{};
  const DataGuide& guide = indexed_.dataguide();
  const xml::Document& document = indexed_.document();

  // Root suggestion: no anchor yet.
  if (query.empty() || request.anchor == twig::kInvalidQueryNode) {
    if (!query.empty()) {
      return Status::InvalidArgument(
          "anchor required for non-empty queries");
    }
    if (request.position_aware && request.axis == Axis::kChild) {
      // '/tag' can only be the document root. Tag prefixes match
      // case-sensitively (XML names are case-sensitive; see the class
      // comment in completion.h).
      if (document.empty()) return std::vector<Candidate>{};
      std::string root_tag(document.TagName(document.root()));
      if (!StartsWith(root_tag, request.prefix)) {
        return std::vector<Candidate>{};
      }
      return std::vector<Candidate>{
          Candidate{root_tag, 1, CandidateKind::kTag}};
    }
    // '//tag' may bind anywhere: every tag qualifies; rank by frequency.
    return GlobalTagCandidates(request.prefix, request.limit);
  }

  if (request.anchor < 0 || request.anchor >= query.size()) {
    return Status::InvalidArgument("anchor out of range");
  }
  LOTUSX_RETURN_IF_ERROR(query.Validate());

  if (!request.position_aware) {
    return GlobalTagCandidates(request.prefix, request.limit);
  }

  std::vector<std::vector<PathId>> bindings =
      twig::SchemaBindings(indexed_, query);
  // Aggregate candidate tags over all positions the anchor can take.
  std::vector<Candidate> candidates;
  for (const auto& [tag, weight] :
       twig::TagsBelow(guide,
                       bindings[static_cast<size_t>(request.anchor)],
                       request.axis)) {
    std::string name(document.tag_name(tag));
    // Case-sensitive on purpose — see the class comment in completion.h.
    if (!StartsWith(name, request.prefix)) continue;
    candidates.push_back(
        Candidate{std::move(name), weight, CandidateKind::kTag});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.frequency != b.frequency) {
                return a.frequency > b.frequency;
              }
              return a.text < b.text;
            });
  if (candidates.size() > request.limit) {
    candidates.resize(request.limit);
  }
  return candidates;
}

StatusOr<std::vector<Candidate>> CompletionEngine::CompleteValue(
    const TwigQuery& query, QueryNodeId node, std::string_view prefix,
    size_t limit, bool position_aware) const {
  CompletionScope scope("value");
  if (node < 0 || node >= query.size()) {
    return Status::InvalidArgument("node out of range");
  }
  const index::Trie* trie = &indexed_.terms().term_trie();
  if (position_aware && query.node(node).tag != "*") {
    // Position must be satisfiable at all.
    std::vector<std::vector<PathId>> bindings =
        twig::SchemaBindings(indexed_, query);
    if (bindings[static_cast<size_t>(node)].empty()) {
      return std::vector<Candidate>{};
    }
    xml::TagId tag = indexed_.document().FindTag(query.node(node).tag);
    const index::Trie* tag_trie = indexed_.terms().term_trie_for_tag(tag);
    if (tag_trie == nullptr) return std::vector<Candidate>{};
    trie = tag_trie;
  }
  std::vector<Candidate> candidates;
  // Value terms are stored lowercased by the keyword tokenizer; lowering
  // the prefix makes value completion case-insensitive (unlike tags —
  // see the class comment in completion.h).
  for (const index::Completion& completion :
       trie->Complete(ToLowerAscii(prefix), limit)) {
    candidates.push_back(
        Candidate{completion.key, completion.weight, CandidateKind::kValue});
  }
  return candidates;
}

bool CompletionEngine::ExtensionIsSatisfiable(const TwigQuery& query,
                                              QueryNodeId anchor, Axis axis,
                                              std::string_view tag) const {
  if (query.empty() || anchor == twig::kInvalidQueryNode) {
    TwigQuery fresh;
    fresh.AddRoot(tag, axis);
    std::vector<std::vector<PathId>> bindings =
        twig::SchemaBindings(indexed_, fresh);
    return !bindings[0].empty();
  }
  TwigQuery extended = query;
  QueryNodeId added = extended.AddChild(anchor, axis, tag);
  std::vector<std::vector<PathId>> bindings =
      twig::SchemaBindings(indexed_, extended);
  return !bindings[static_cast<size_t>(added)].empty();
}

}  // namespace lotusx::autocomplete
