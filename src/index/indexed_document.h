#ifndef LOTUSX_INDEX_INDEXED_DOCUMENT_H_
#define LOTUSX_INDEX_INDEXED_DOCUMENT_H_

#include <memory>
#include <string>

#include "common/status_or.h"
#include "index/dataguide.h"
#include "index/tag_streams.h"
#include "index/term_index.h"
#include "index/trie.h"
#include "labeling/extended_dewey.h"
#include "xml/dom.h"

namespace lotusx::index {

/// Wall-clock and memory accounting for every index component (feeds the
/// E7 index-construction experiment).
struct IndexBuildStats {
  // No longer built and always 0; kept only because the serving
  // benchmark's tracer still reads them.
  double containment_ms = 0;
  double dewey_ms = 0;
  double transducer_ms = 0;
  double extended_dewey_ms = 0;
  double dataguide_ms = 0;
  double tag_streams_ms = 0;
  double term_index_ms = 0;
  double tag_trie_ms = 0;
  double total_ms = 0;

  size_t document_bytes = 0;
  size_t extended_dewey_bytes = 0;
  size_t transducer_bytes = 0;
  size_t dataguide_bytes = 0;
  size_t tag_streams_bytes = 0;
  size_t term_index_bytes = 0;
  size_t tag_trie_bytes = 0;
  size_t total_bytes() const {
    return document_bytes + extended_dewey_bytes + transducer_bytes +
           dataguide_bytes + tag_streams_bytes + term_index_bytes +
           tag_trie_bytes;
  }
};

/// A finalized document together with every index LotusX needs: the
/// extended Dewey labels and their tag transducer, the DataGuide, per-tag
/// node streams, the keyword index, and the tag-name completion trie.
/// Region labels (start, end, level) need no store: they are the DOM's
/// own NodeId, subtree_end and depth. This is the unit the engine loads,
/// queries, and persists.
class IndexedDocument {
 public:
  /// Builds all indexes over `document` (which must be finalized).
  explicit IndexedDocument(xml::Document document);

  IndexedDocument(IndexedDocument&&) noexcept = default;
  IndexedDocument& operator=(IndexedDocument&&) noexcept = default;
  IndexedDocument(const IndexedDocument&) = delete;
  IndexedDocument& operator=(const IndexedDocument&) = delete;

  const xml::Document& document() const { return document_; }
  const labeling::ExtendedDeweyStore& extended_dewey() const {
    return extended_dewey_;
  }
  const labeling::TagTransducer& transducer() const { return transducer_; }
  const DataGuide& dataguide() const { return dataguide_; }
  const TagStreams& tag_streams() const { return tag_streams_; }
  const TermIndex& terms() const { return terms_; }
  /// Tag-name completion trie; weights are tag occurrence counts.
  const Trie& tag_trie() const { return tag_trie_; }

  const IndexBuildStats& build_stats() const { return stats_; }

  /// Audits every index component against the document and the components
  /// against each other: the DOM arena itself, the extended Dewey labels
  /// (prefix/order/decode properties), the
  /// DataGuide, tag streams, term index, and the completion tries. `deep`
  /// additionally re-tokenizes all values to recount the term index (the
  /// cost of a fresh build). Returns Corruption naming the first violated
  /// invariant. LoadFrom runs the untrusted decoded parts through their
  /// validators automatically; tests and the engine's --validate mode run
  /// this full audit.
  Status ValidateInvariants(bool deep = true) const;

  /// Serializes the document and the heavyweight indexes (DataGuide, tag
  /// streams, term index) to `path` in the versioned LotusX binary format.
  /// Label stores and tries are derived in linear time at load and are not
  /// persisted.
  Status SaveTo(const std::string& path) const;

  /// Loads an index image written by SaveTo. Rejects wrong-magic,
  /// wrong-version, and corrupt images with Status::Corruption.
  static StatusOr<IndexedDocument> LoadFrom(const std::string& path);

 private:
  struct LoadedParts;
  IndexedDocument(xml::Document document, LoadedParts parts);
  void BuildDerivedIndexes();

  xml::Document document_;
  labeling::TagTransducer transducer_;
  labeling::ExtendedDeweyStore extended_dewey_;
  DataGuide dataguide_;
  TagStreams tag_streams_;
  TermIndex terms_;
  Trie tag_trie_;
  IndexBuildStats stats_;
};

/// Serializes a finalized document (tag table, node structure, values)
/// into `encoder`; DecodeDocument reverses it. Exposed for tests.
void EncodeDocument(const xml::Document& document, Encoder* encoder);
StatusOr<xml::Document> DecodeDocument(Decoder* decoder);

}  // namespace lotusx::index

#endif  // LOTUSX_INDEX_INDEXED_DOCUMENT_H_
