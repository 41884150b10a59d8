#ifndef LOTUSX_AUTOCOMPLETE_COMPLETION_H_
#define LOTUSX_AUTOCOMPLETE_COMPLETION_H_

#include <string>
#include <vector>

#include "common/status_or.h"
#include "index/indexed_document.h"
#include "twig/twig_query.h"

namespace lotusx::autocomplete {

enum class CandidateKind { kTag, kValue };

/// One ranked suggestion shown to the user while building a query.
struct Candidate {
  std::string text;
  /// Occurrences at the suggested position (position-aware mode) or in the
  /// whole document (global mode). Candidates are returned heaviest first.
  uint64_t frequency = 0;
  CandidateKind kind = CandidateKind::kTag;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// A tag-completion request: the user is extending `anchor` of `query`
/// with a new node connected by `axis` and has typed `prefix` so far.
/// With anchor == kInvalidQueryNode (or an empty query) the request is for
/// the query root itself.
struct TagRequest {
  twig::QueryNodeId anchor = twig::kInvalidQueryNode;
  twig::Axis axis = twig::Axis::kChild;
  std::string prefix;
  size_t limit = 10;
  /// false selects the global (position-agnostic) baseline of E2.
  bool position_aware = true;
};

/// LotusX's position-aware auto-completion engine.
///
/// Position-awareness works at the schema level: the partial query is
/// evaluated over the DataGuide (a tree orders of magnitude smaller than
/// the document), yielding for every query node the exact set of label
/// paths it can bind to. Candidates for the position being extended are
/// then the union of child/descendant tags over those paths, weighted by
/// occurrence counts — so every suggestion is satisfiable in the data by
/// construction, and frequent continuations rank first.
///
/// Case sensitivity: tag completion matches the typed prefix
/// case-SENSITIVELY — XML element names are case-sensitive, so "Art"
/// must not suggest "article". Value completion matches
/// case-INSENSITIVELY: the term index stores keyword tokens lowercased
/// (see TokenizeKeywords), and CompleteValue lowercases the typed prefix
/// to meet it, so "LU" suggests the term "lu". Both behaviors are pinned
/// by tests/autocomplete_test.cc.
class CompletionEngine {
 public:
  explicit CompletionEngine(const index::IndexedDocument& indexed)
      : indexed_(indexed) {}

  /// Ranked tag candidates for extending `query` per `request`.
  StatusOr<std::vector<Candidate>> CompleteTag(
      const twig::TwigQuery& query, const TagRequest& request) const;

  /// Ranked value-keyword candidates for the value box of `node` (terms
  /// occurring under that node's possible positions). Global term
  /// completion when position_aware is false.
  StatusOr<std::vector<Candidate>> CompleteValue(
      const twig::TwigQuery& query, twig::QueryNodeId node,
      std::string_view prefix, size_t limit, bool position_aware) const;

  /// True when extending `anchor` with a new `axis`-connected `tag` node
  /// leaves the query satisfiable at the schema level — the E2 validity
  /// metric for judging candidate quality.
  bool ExtensionIsSatisfiable(const twig::TwigQuery& query,
                              twig::QueryNodeId anchor, twig::Axis axis,
                              std::string_view tag) const;

 private:
  std::vector<Candidate> GlobalTagCandidates(std::string_view prefix,
                                             size_t limit) const;

  const index::IndexedDocument& indexed_;
};

}  // namespace lotusx::autocomplete

#endif  // LOTUSX_AUTOCOMPLETE_COMPLETION_H_
