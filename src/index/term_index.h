#ifndef LOTUSX_INDEX_TERM_INDEX_H_
#define LOTUSX_INDEX_TERM_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/coding.h"
#include "common/status_or.h"
#include "index/posting_blocks.h"
#include "index/trie.h"
#include "xml/dom.h"

namespace lotusx::index {

/// Inverted keyword index over element values. An element's value is the
/// concatenation of its direct text children (xml::Document::ContentString)
/// — the standard leaf-value model of twig search; attribute nodes carry
/// their own value. Terms are lowercase alphanumeric tokens
/// (TokenizeKeywords). Postings map a term to the *value nodes* (elements
/// with direct text, or attributes) containing it, in document order,
/// stored block-compressed (PostingBlocks) with per-node term frequencies
/// riding in the payload channel.
///
/// Besides predicate evaluation, the index maintains completion tries:
/// one global term trie and one per owner tag, so value auto-completion can
/// be restricted to terms that actually occur under the tag the user is
/// typing into (the position-aware behaviour, refined further by the
/// evaluator against the full query context).
class TermIndex {
 public:
  static TermIndex Build(const xml::Document& document);

  /// Block-compressed postings of `term` (document order; payload =
  /// per-node term frequency). nullptr for unknown terms. `term` must
  /// already be lowercase (as TokenizeKeywords emits).
  const PostingBlocks* PostingsFor(std::string_view term) const;

  /// Full decompression of `term`'s posting nodes; cold paths (keyword
  /// search random access) and tests only.
  std::vector<xml::NodeId> DecodePostings(std::string_view term) const;

  /// Number of value nodes containing `term`.
  uint32_t DocFrequency(std::string_view term) const;
  /// Total occurrences of `term` across all value nodes.
  uint64_t CollectionFrequency(std::string_view term) const;

  /// Total number of value nodes (the "N" of IDF).
  uint32_t num_value_nodes() const { return num_value_nodes_; }
  /// Number of distinct terms.
  size_t num_terms() const { return postings_.size(); }

  /// Term frequency of `term` within a specific value node (0 if absent).
  /// A random-access probe that decodes one block per call; callers
  /// visiting many nodes in order sweep PostingsFor(term) with a cursor.
  uint32_t TermFrequencyIn(std::string_view term, xml::NodeId node) const;

  /// Global completion trie (weights = collection frequency).
  const Trie& term_trie() const { return term_trie_; }
  /// Per-tag completion trie for values owned by `tag`; nullptr when the
  /// tag owns no values.
  const Trie* term_trie_for_tag(xml::TagId tag) const;

  size_t MemoryUsage() const;

  /// Audits postings and completion tries against `document`: block
  /// metadata consistent with decoded contents, posting nodes strictly
  /// sorted, in range, frequencies positive; collection frequencies
  /// consistent; tries structurally sound (see Trie::ValidateInvariants)
  /// and keyed by live tags. With `deep` set the document's value nodes
  /// are additionally re-tokenized and the postings compared against the
  /// recount — the cost of a fresh Build, so LoadFrom runs the linear
  /// structural audit only and tests / `--validate` run the deep one.
  /// Returns Corruption naming the first violated invariant.
  Status ValidateInvariants(const xml::Document& document,
                            bool deep = true) const;

  void EncodeTo(Encoder* encoder) const;
  static StatusOr<TermIndex> DecodeFrom(Decoder* decoder);

 private:
  struct PostingList {
    PostingBlocks postings;  // keys: value nodes; payload: term freqs
    uint64_t collection_frequency = 0;
  };

  /// Hashes std::string and std::string_view alike, so probes with a
  /// string_view find a term without building a std::string.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  std::unordered_map<std::string, PostingList, TermHash, std::equal_to<>>
      postings_;
  uint32_t num_value_nodes_ = 0;
  Trie term_trie_;
  std::unordered_map<xml::TagId, Trie> tag_tries_;
};

}  // namespace lotusx::index

#endif  // LOTUSX_INDEX_TERM_INDEX_H_
