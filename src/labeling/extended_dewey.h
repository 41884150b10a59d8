#ifndef LOTUSX_LABELING_EXTENDED_DEWEY_H_
#define LOTUSX_LABELING_EXTENDED_DEWEY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "xml/dom.h"

namespace lotusx::labeling {

/// A Dewey label is the sequence of per-level components on the path from
/// the root (exclusive) to a node; the root's label is empty. Views are
/// spans into a flat per-document store (ExtendedDeweyStore).
using DeweyView = std::span<const int32_t>;

/// True when `a` is the parent of `b`: `b` is `a` plus one component.
bool IsParentLabel(DeweyView a, DeweyView b);

/// Document-order comparison: negative / 0 / positive like strcmp. A
/// proper prefix precedes its extensions (ancestors come first in
/// document order).
int CompareLabels(DeweyView a, DeweyView b);

/// Tag identifier in the transducer's universe: document TagIds for
/// elements/attributes plus one synthetic id for text nodes.
using XTagId = int32_t;

/// DTD-like finite-state transducer inferred from the data: for every tag
/// it records the ordered set of child tags observed anywhere in the
/// document. This is the decoding automaton for extended Dewey labels (Lu
/// et al., "TJFast"): a label component modulo the parent's child-tag
/// count identifies the child's tag, so the entire root-to-node *tag path*
/// can be recovered from a node's label alone — the property LotusX's
/// position-aware features exploit.
class TagTransducer {
 public:
  /// Builds the transducer over a finalized document.
  static TagTransducer Build(const xml::Document& document);

  /// Synthetic tag id used for text nodes ("#text").
  XTagId text_tag() const { return text_tag_; }

  /// Ordered (ascending XTagId) child tags observed under `tag`.
  const std::vector<XTagId>& ChildTags(XTagId tag) const;

  /// Index of `child` within ChildTags(parent); -1 when never observed.
  int32_t ChildIndex(XTagId parent, XTagId child) const;

  size_t MemoryUsage() const;

 private:
  XTagId text_tag_ = 0;
  std::vector<std::vector<XTagId>> children_;        // by parent tag
  std::vector<std::unordered_map<XTagId, int32_t>> child_index_;
  std::vector<XTagId> empty_;
};

/// Extended Dewey labels. Component construction (per TJFast): for the
/// j-th labeled child of a node whose tag has k possible child tags, the
/// child with child-tag-index i receives the smallest component c that is
/// (a) larger than the previous sibling's component (or >= 0 for the
/// first) and (b) congruent to i modulo k. Ancestor/descendant and
/// document-order semantics are identical to ordinal Dewey (a label is a
/// prefix of its descendants' labels, and labels compare in document
/// order); additionally DecodeTagPath recovers the tag path. Labels are
/// stored flat: one offset per node into the concatenated components.
class ExtendedDeweyStore {
 public:
  static ExtendedDeweyStore Build(const xml::Document& document,
                                  const TagTransducer& transducer);

  DeweyView label(xml::NodeId id) const {
    size_t i = static_cast<size_t>(id);
    return DeweyView(components_).subspan(
        static_cast<size_t>(offsets_[i]),
        static_cast<size_t>(offsets_[i + 1] - offsets_[i]));
  }
  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  size_t MemoryUsage() const {
    return offsets_.capacity() * sizeof(int32_t) +
           components_.capacity() * sizeof(int32_t);
  }

  /// Decodes the tag path (root tag first, the node's own tag last) of the
  /// node carrying `label`. `root_tag` is the document root's tag.
  static std::vector<XTagId> DecodeTagPath(const TagTransducer& transducer,
                                           XTagId root_tag, DeweyView label);

  /// Same, into a caller-owned buffer (cleared first) so tight decode
  /// loops can reuse one allocation across elements.
  static void DecodeTagPath(const TagTransducer& transducer, XTagId root_tag,
                            DeweyView label, std::vector<XTagId>* path);

 private:
  std::vector<int32_t> offsets_;     // size num_nodes + 1
  std::vector<int32_t> components_;  // concatenated labels
};

}  // namespace lotusx::labeling

#endif  // LOTUSX_LABELING_EXTENDED_DEWEY_H_
