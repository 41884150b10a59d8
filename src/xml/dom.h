#ifndef LOTUSX_XML_DOM_H_
#define LOTUSX_XML_DOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace lotusx::xml {

/// Node identifier: the node's preorder (document-order) rank within its
/// Document. Comparing two NodeIds compares document order directly.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNodeId = -1;

/// Interned tag-name identifier, shared by elements and attributes.
using TagId = int32_t;
inline constexpr TagId kInvalidTagId = -1;

enum class NodeKind : uint8_t {
  kElement = 0,
  kAttribute = 1,  // modeled as a child node of its owner element
  kText = 2,
};

/// Arena DOM optimized for read-mostly twig search: nodes live in one flat
/// vector in document order, with parent / first-child / next-sibling links
/// and precomputed subtree extents.
///
/// The document is built strictly in document order via AppendElement /
/// AppendAttribute / AppendText (parents before children, siblings left to
/// right) and sealed with Finalize(), which computes subtree extents.
/// DomBuilder and the data generators both follow this discipline.
class Document {
 public:
  struct Node {
    NodeKind kind = NodeKind::kElement;
    TagId tag = kInvalidTagId;        // element/attribute name
    int32_t value = -1;               // text/attribute value (texts_ index)
    NodeId parent = kInvalidNodeId;
    NodeId first_child = kInvalidNodeId;
    NodeId next_sibling = kInvalidNodeId;
    int32_t depth = 0;                // root has depth 0
    NodeId subtree_end = kInvalidNodeId;  // max NodeId inside the subtree
  };

  Document() = default;
  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Appends an element. `parent` is kInvalidNodeId only for the root.
  /// Must be called in document order; enforced with CHECKs.
  NodeId AppendElement(NodeId parent, std::string_view tag);

  /// Appends an attribute node under `parent` (an element). Attribute nodes
  /// are regular children that precede element/text children in document
  /// order; the builder appends them immediately after the owning element.
  NodeId AppendAttribute(NodeId parent, std::string_view name,
                         std::string_view value);

  /// Appends a text node under `parent`.
  NodeId AppendText(NodeId parent, std::string_view text);

  /// Seals the document: computes subtree extents and frees the
  /// append-only bookkeeping. Must be called exactly once, after which no
  /// Append* calls are allowed.
  void Finalize();
  bool finalized() const { return finalized_; }

  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }
  NodeId root() const { return nodes_.empty() ? kInvalidNodeId : 0; }

  const Node& node(NodeId id) const {
    DCHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<size_t>(id)];
  }

  bool IsElement(NodeId id) const {
    return node(id).kind == NodeKind::kElement;
  }

  /// Tag name of an element or attribute node.
  std::string_view TagName(NodeId id) const {
    DCHECK(node(id).kind != NodeKind::kText);
    return tag_names_[static_cast<size_t>(node(id).tag)];
  }

  /// Value of a text or attribute node.
  std::string_view Value(NodeId id) const {
    DCHECK(node(id).value >= 0);
    return texts_[static_cast<size_t>(node(id).value)];
  }

  /// Number of distinct tag names.
  int32_t num_tags() const { return static_cast<int32_t>(tag_names_.size()); }
  std::string_view tag_name(TagId tag) const {
    DCHECK(tag >= 0 && tag < num_tags());
    return tag_names_[static_cast<size_t>(tag)];
  }
  /// kInvalidTagId when `tag` never occurs in the document.
  TagId FindTag(std::string_view tag) const;

  /// True when `ancestor` is a proper ancestor of `descendant`.
  /// O(1) via subtree extents; requires Finalize().
  bool IsAncestor(NodeId ancestor, NodeId descendant) const {
    DCHECK(finalized_);
    return ancestor < descendant &&
           descendant <= node(ancestor).subtree_end;
  }

  /// Concatenation of the values of `element`'s direct text children,
  /// whitespace-trimmed. This is the element's "value" for query
  /// predicates (the standard leaf-value model in twig search).
  std::string ContentString(NodeId element) const;

  /// Collects children of `id` in document order.
  std::vector<NodeId> Children(NodeId id) const;

  /// Approximate heap footprint in bytes (for E7 reporting).
  size_t MemoryUsage() const;

  /// Audits the arena invariants of a finalized document: preorder ids,
  /// parent/first_child/next_sibling agreement, depth arithmetic, subtree
  /// extents, node-kind discipline (only elements have children, text and
  /// attribute nodes carry values), and tag/text table references in
  /// range. Returns Corruption naming the first violated invariant; used
  /// by tests, the stress suite, and the engine's --validate mode.
  Status ValidateInvariants() const;

 private:
  TagId InternTag(std::string_view tag);
  int32_t InternText(std::string_view text);
  NodeId AppendNode(NodeId parent, Node node);

  std::vector<Node> nodes_;
  std::vector<NodeId> last_child_;  // per node, for O(1) append; freed
                                    // by Finalize
  std::vector<std::string> tag_names_;
  std::unordered_map<std::string, TagId> tag_ids_;
  std::vector<std::string> texts_;
  bool finalized_ = false;
};

}  // namespace lotusx::xml

#endif  // LOTUSX_XML_DOM_H_
