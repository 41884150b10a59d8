#include "index/indexed_document.h"

#include <utility>

#include "common/invariant.h"
#include "common/timer.h"

namespace lotusx::index {

namespace {
constexpr uint32_t kMagic = 0x4C545358;  // "LTSX"
// Version 2: tag streams and term postings are block-compressed
// (PostingBlocks) with skip metadata; version-1 raw delta lists are no
// longer readable.
constexpr uint32_t kFormatVersion = 2;
}  // namespace

struct IndexedDocument::LoadedParts {
  DataGuide dataguide;
  TagStreams tag_streams;
  TermIndex terms;
};

IndexedDocument::IndexedDocument(xml::Document document)
    : document_(std::move(document)) {
  CHECK(document_.finalized());
  Timer total;
  Timer timer;

  dataguide_ = DataGuide::Build(document_);
  stats_.dataguide_ms = timer.ElapsedMillis();

  timer.Restart();
  tag_streams_ = TagStreams::Build(document_);
  stats_.tag_streams_ms = timer.ElapsedMillis();

  timer.Restart();
  terms_ = TermIndex::Build(document_);
  stats_.term_index_ms = timer.ElapsedMillis();

  BuildDerivedIndexes();
  stats_.total_ms = total.ElapsedMillis();
}

IndexedDocument::IndexedDocument(xml::Document document, LoadedParts parts)
    : document_(std::move(document)),
      dataguide_(std::move(parts.dataguide)),
      tag_streams_(std::move(parts.tag_streams)),
      terms_(std::move(parts.terms)) {
  Timer total;
  BuildDerivedIndexes();
  stats_.total_ms = total.ElapsedMillis();
}

void IndexedDocument::BuildDerivedIndexes() {
  Timer timer;
  transducer_ = labeling::TagTransducer::Build(document_);
  stats_.transducer_ms = timer.ElapsedMillis();

  timer.Restart();
  extended_dewey_ =
      labeling::ExtendedDeweyStore::Build(document_, transducer_);
  stats_.extended_dewey_ms = timer.ElapsedMillis();

  timer.Restart();
  for (xml::TagId tag = 0; tag < document_.num_tags(); ++tag) {
    uint64_t count = tag_streams_.count(tag);
    if (count > 0) {
      tag_trie_.Insert(document_.tag_name(tag), count);
    }
  }
  stats_.tag_trie_ms = timer.ElapsedMillis();

  stats_.document_bytes = document_.MemoryUsage();
  stats_.extended_dewey_bytes = extended_dewey_.MemoryUsage();
  stats_.transducer_bytes = transducer_.MemoryUsage();
  stats_.dataguide_bytes = dataguide_.MemoryUsage();
  stats_.tag_streams_bytes = tag_streams_.MemoryUsage();
  stats_.term_index_bytes = terms_.MemoryUsage();
  stats_.tag_trie_bytes = tag_trie_.MemoryUsage();
}

Status IndexedDocument::ValidateInvariants(bool deep) const {
  LOTUSX_RETURN_IF_ERROR(document_.ValidateInvariants());

  // Extended Dewey: one label per node, length == depth, the parent's
  // label a strict prefix, document order preserved, and every component
  // decoding to the node's tag through the transducer — the property
  // TJFast and the position-aware features rely on.
  LOTUSX_ENSURE(extended_dewey_.size() ==
                static_cast<size_t>(document_.num_nodes()))
      << "extended dewey covers " << extended_dewey_.size() << " nodes";
  for (xml::NodeId id = 0; id < document_.num_nodes(); ++id) {
    const xml::Document::Node& node = document_.node(id);
    labeling::DeweyView extended = extended_dewey_.label(id);
    LOTUSX_ENSURE(extended.size() == static_cast<size_t>(node.depth))
        << "extended dewey label of node " << id << " has length "
        << extended.size();
    if (id == 0) continue;
    LOTUSX_ENSURE(labeling::IsParentLabel(
        extended_dewey_.label(node.parent), extended))
        << "extended dewey parent of node " << id
        << " is not a label prefix";
    LOTUSX_ENSURE(labeling::CompareLabels(extended_dewey_.label(id - 1),
                                          extended) < 0)
        << "extended dewey labels out of document order at node " << id;
    // Mod-k decode of the final component recovers the node's tag; with
    // the parent prefix property this inductively proves DecodeTagPath
    // recovers the whole root-to-node tag path.
    labeling::XTagId parent_tag =
        document_.node(node.parent).kind == xml::NodeKind::kText
            ? transducer_.text_tag()
            : document_.node(node.parent).tag;
    labeling::XTagId node_tag = node.kind == xml::NodeKind::kText
                                    ? transducer_.text_tag()
                                    : node.tag;
    const std::vector<labeling::XTagId>& siblings =
        transducer_.ChildTags(parent_tag);
    LOTUSX_ENSURE(!siblings.empty())
        << "transducer has no children for tag " << parent_tag;
    LOTUSX_ENSURE(siblings[static_cast<size_t>(extended.back()) %
                           siblings.size()] == node_tag)
        << "extended dewey component of node " << id
        << " does not decode to its tag";
  }

  LOTUSX_RETURN_IF_ERROR(dataguide_.ValidateInvariants(document_));
  LOTUSX_RETURN_IF_ERROR(tag_streams_.ValidateInvariants(document_));
  LOTUSX_RETURN_IF_ERROR(terms_.ValidateInvariants(document_, deep));

  // Tag completion trie mirrors the tag streams' occurrence counts.
  LOTUSX_RETURN_IF_ERROR(tag_trie_.ValidateInvariants());
  size_t live_tags = 0;
  for (xml::TagId tag = 0; tag < document_.num_tags(); ++tag) {
    uint64_t count = tag_streams_.count(tag);
    if (count > 0) ++live_tags;
    LOTUSX_ENSURE(tag_trie_.WeightOf(document_.tag_name(tag)) == count)
        << "tag trie weight of '" << document_.tag_name(tag)
        << "' disagrees with its stream";
  }
  LOTUSX_ENSURE(tag_trie_.num_keys() == live_tags)
      << "tag trie holds " << tag_trie_.num_keys() << " keys, document has "
      << live_tags << " live tags";
  return Status::OK();
}

void EncodeDocument(const xml::Document& document, Encoder* encoder) {
  encoder->PutVarint64(static_cast<uint64_t>(document.num_tags()));
  for (xml::TagId tag = 0; tag < document.num_tags(); ++tag) {
    encoder->PutString(document.tag_name(tag));
  }
  encoder->PutVarint64(static_cast<uint64_t>(document.num_nodes()));
  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    const xml::Document::Node& node = document.node(id);
    encoder->PutVarint32(static_cast<uint32_t>(node.kind));
    encoder->PutVarint32(static_cast<uint32_t>(node.parent + 1));
    if (node.kind == xml::NodeKind::kText) {
      encoder->PutString(document.Value(id));
    } else if (node.kind == xml::NodeKind::kAttribute) {
      encoder->PutVarint32(static_cast<uint32_t>(node.tag));
      encoder->PutString(document.Value(id));
    } else {
      encoder->PutVarint32(static_cast<uint32_t>(node.tag));
    }
  }
}

StatusOr<xml::Document> DecodeDocument(Decoder* decoder) {
  uint64_t tag_count = 0;
  LOTUSX_RETURN_IF_ERROR(decoder->GetVarint64(&tag_count));
  std::vector<std::string> tags(tag_count);
  for (std::string& tag : tags) {
    LOTUSX_RETURN_IF_ERROR(decoder->GetString(&tag));
  }
  uint64_t node_count = 0;
  LOTUSX_RETURN_IF_ERROR(decoder->GetVarint64(&node_count));
  xml::Document document;
  // Kinds seen so far: a corrupted image may claim a text/attribute node
  // as a parent, or break the preorder append discipline — both must be
  // rejected here, before Document's internal CHECKs would abort.
  std::vector<xml::NodeKind> kinds;
  kinds.reserve(node_count);
  xml::NodeId previous = xml::kInvalidNodeId;
  for (uint64_t i = 0; i < node_count; ++i) {
    uint32_t kind_raw = 0;
    uint32_t parent_plus1 = 0;
    LOTUSX_RETURN_IF_ERROR(decoder->GetVarint32(&kind_raw));
    LOTUSX_RETURN_IF_ERROR(decoder->GetVarint32(&parent_plus1));
    if (kind_raw > 2) return Status::Corruption("bad node kind");
    auto kind = static_cast<xml::NodeKind>(kind_raw);
    xml::NodeId parent = static_cast<xml::NodeId>(parent_plus1) - 1;
    if (parent >= static_cast<xml::NodeId>(i)) {
      return Status::Corruption("node parent not before child");
    }
    if ((parent == xml::kInvalidNodeId) != (i == 0)) {
      return Status::Corruption("exactly the first node must be the root");
    }
    if (i == 0 && kind != xml::NodeKind::kElement) {
      return Status::Corruption("root must be an element");
    }
    if (parent != xml::kInvalidNodeId &&
        kinds[static_cast<size_t>(parent)] != xml::NodeKind::kElement) {
      return Status::Corruption("non-element parent");
    }
    if (i > 0) {
      // Preorder discipline: the parent must be on the ancestor spine of
      // the previously appended node.
      xml::NodeId walk = previous;
      while (walk != xml::kInvalidNodeId && walk != parent) {
        walk = document.node(walk).parent;
      }
      if (walk != parent) {
        return Status::Corruption("nodes not in document order");
      }
    }
    kinds.push_back(kind);
    previous = static_cast<xml::NodeId>(i);
    if (kind == xml::NodeKind::kText) {
      std::string value;
      LOTUSX_RETURN_IF_ERROR(decoder->GetString(&value));
      document.AppendText(parent, value);
      continue;
    }
    uint32_t tag_id = 0;
    LOTUSX_RETURN_IF_ERROR(decoder->GetVarint32(&tag_id));
    if (tag_id >= tags.size()) return Status::Corruption("bad tag id");
    if (kind == xml::NodeKind::kAttribute) {
      std::string value;
      LOTUSX_RETURN_IF_ERROR(decoder->GetString(&value));
      const std::string& name = tags[tag_id];
      if (name.empty() || name[0] != '@') {
        return Status::Corruption("attribute tag without '@' prefix");
      }
      document.AppendAttribute(parent, std::string_view(name).substr(1),
                               value);
    } else {
      document.AppendElement(parent, tags[tag_id]);
    }
  }
  document.Finalize();
  return document;
}

Status IndexedDocument::SaveTo(const std::string& path) const {
  std::string buffer;
  Encoder encoder(&buffer);
  encoder.PutFixed32(kMagic);
  encoder.PutFixed32(kFormatVersion);
  EncodeDocument(document_, &encoder);
  dataguide_.EncodeTo(&encoder);
  tag_streams_.EncodeTo(&encoder);
  terms_.EncodeTo(&encoder);
  return WriteStringToFile(path, buffer);
}

StatusOr<IndexedDocument> IndexedDocument::LoadFrom(
    const std::string& path) {
  std::string buffer;
  LOTUSX_RETURN_IF_ERROR(ReadFileToString(path, &buffer));
  Decoder decoder(buffer);
  uint32_t magic = 0;
  uint32_t version = 0;
  LOTUSX_RETURN_IF_ERROR(decoder.GetFixed32(&magic));
  if (magic != kMagic) {
    return Status::Corruption("not a LotusX index file: " + path);
  }
  LOTUSX_RETURN_IF_ERROR(decoder.GetFixed32(&version));
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported index format version " +
                              std::to_string(version));
  }
  LOTUSX_ASSIGN_OR_RETURN(xml::Document document, DecodeDocument(&decoder));
  LoadedParts parts;
  LOTUSX_ASSIGN_OR_RETURN(parts.dataguide, DataGuide::DecodeFrom(&decoder));
  LOTUSX_ASSIGN_OR_RETURN(parts.tag_streams,
                          TagStreams::DecodeFrom(&decoder));
  LOTUSX_ASSIGN_OR_RETURN(parts.terms, TermIndex::DecodeFrom(&decoder));
  if (!decoder.Done()) {
    return Status::Corruption("trailing bytes in index file");
  }
  // The decoders above only check local wire-format sanity; a structurally
  // valid image can still carry cross-component lies (a tag stream node id
  // past the document, a DataGuide summarizing a different tree, a cyclic
  // completion trie that would hang Complete()). Audit the decoded parts
  // against the document before anything queries them.
  LOTUSX_RETURN_IF_ERROR(parts.dataguide.ValidateInvariants(document));
  LOTUSX_RETURN_IF_ERROR(parts.tag_streams.ValidateInvariants(document));
  LOTUSX_RETURN_IF_ERROR(
      parts.terms.ValidateInvariants(document, /*deep=*/false));
  return IndexedDocument(std::move(document), std::move(parts));
}

}  // namespace lotusx::index
