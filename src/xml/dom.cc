#include "xml/dom.h"

#include <string>

#include "common/invariant.h"
#include "common/string_util.h"

namespace lotusx::xml {

TagId Document::InternTag(std::string_view tag) {
  auto it = tag_ids_.find(std::string(tag));
  if (it != tag_ids_.end()) return it->second;
  TagId id = static_cast<TagId>(tag_names_.size());
  tag_names_.emplace_back(tag);
  tag_ids_.emplace(std::string(tag), id);
  return id;
}

int32_t Document::InternText(std::string_view text) {
  texts_.emplace_back(text);
  return static_cast<int32_t>(texts_.size() - 1);
}

NodeId Document::AppendNode(NodeId parent, Node node) {
  CHECK(!finalized_) << "Append on finalized Document";
  NodeId id = static_cast<NodeId>(nodes_.size());
  if (parent == kInvalidNodeId) {
    CHECK(nodes_.empty()) << "only the first node may be the root";
    node.depth = 0;
  } else {
    CHECK(parent >= 0 && parent < id) << "parent must precede child";
    // Preorder (document-order) append discipline: the parent must still
    // be "open", i.e. lie on the ancestor spine of the last appended node.
    DCHECK([&] {
      NodeId walk = id - 1;
      while (walk != kInvalidNodeId && walk != parent) {
        walk = nodes_[static_cast<size_t>(walk)].parent;
      }
      return walk == parent;
    }()) << "append violates document order: parent "
         << parent << " is closed";
    node.parent = parent;
    node.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
    NodeId last = last_child_[static_cast<size_t>(parent)];
    if (last == kInvalidNodeId) {
      nodes_[static_cast<size_t>(parent)].first_child = id;
    } else {
      // Document-order discipline: the previous child's subtree must be
      // complete, i.e. no node after `last` has a parent outside
      // last's subtree... enforced implicitly by sibling chaining.
      nodes_[static_cast<size_t>(last)].next_sibling = id;
    }
    last_child_[static_cast<size_t>(parent)] = id;
  }
  nodes_.push_back(node);
  last_child_.push_back(kInvalidNodeId);
  return id;
}

NodeId Document::AppendElement(NodeId parent, std::string_view tag) {
  Node node;
  node.kind = NodeKind::kElement;
  node.tag = InternTag(tag);
  return AppendNode(parent, node);
}

NodeId Document::AppendAttribute(NodeId parent, std::string_view name,
                                 std::string_view value) {
  CHECK(parent != kInvalidNodeId);
  CHECK(nodes_[static_cast<size_t>(parent)].kind == NodeKind::kElement);
  Node node;
  node.kind = NodeKind::kAttribute;
  // Attributes are distinguished from elements by an "@" tag prefix, the
  // convention used by twig-pattern literature and by the query syntax.
  node.tag = InternTag("@" + std::string(name));
  node.value = InternText(value);
  return AppendNode(parent, node);
}

NodeId Document::AppendText(NodeId parent, std::string_view text) {
  CHECK(parent != kInvalidNodeId);
  CHECK(nodes_[static_cast<size_t>(parent)].kind == NodeKind::kElement);
  Node node;
  node.kind = NodeKind::kText;
  node.value = InternText(text);
  return AppendNode(parent, node);
}

void Document::Finalize() {
  CHECK(!finalized_) << "Finalize called twice";
  // With preorder ids, a node's subtree extent is its own id if it is a
  // leaf, else the extent of its last child; computed back to front so
  // children are resolved before parents.
  for (int32_t i = num_nodes() - 1; i >= 0; --i) {
    NodeId last = last_child_[static_cast<size_t>(i)];
    nodes_[static_cast<size_t>(i)].subtree_end =
        last == kInvalidNodeId ? i
                               : nodes_[static_cast<size_t>(last)].subtree_end;
  }
  // Appends are over; the sealed document keeps no build-only state.
  std::vector<NodeId>().swap(last_child_);
  finalized_ = true;
}

Status Document::ValidateInvariants() const {
  LOTUSX_ENSURE(finalized_) << "document not finalized";
  if (nodes_.empty()) return Status::OK();
  LOTUSX_ENSURE(nodes_[0].parent == kInvalidNodeId) << "node 0 has a parent";
  LOTUSX_ENSURE(nodes_[0].kind == NodeKind::kElement)
      << "root is not an element";
  // first_child/next_sibling are re-derived below from parent pointers;
  // children of a node appear in id order, so the links must enumerate
  // them exactly.
  std::vector<NodeId> expected_next_child(nodes_.size(), kInvalidNodeId);
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    if (id > 0) {
      LOTUSX_ENSURE(n.parent >= 0 && n.parent < id)
          << "node " << id << " parent " << n.parent;
      const Node& parent = nodes_[static_cast<size_t>(n.parent)];
      LOTUSX_ENSURE(parent.kind == NodeKind::kElement)
          << "node " << id << " under non-element parent " << n.parent;
      LOTUSX_ENSURE(n.depth == parent.depth + 1)
          << "node " << id << " depth " << n.depth;
      LOTUSX_ENSURE(n.subtree_end <= parent.subtree_end)
          << "node " << id << " subtree leaks past parent";
      NodeId& cursor = expected_next_child[static_cast<size_t>(n.parent)];
      if (cursor == kInvalidNodeId) {
        LOTUSX_ENSURE(parent.first_child == id)
            << "node " << n.parent << " first_child " << parent.first_child
            << " but first child is " << id;
      } else {
        LOTUSX_ENSURE(nodes_[static_cast<size_t>(cursor)].next_sibling == id)
            << "node " << cursor << " next_sibling skips " << id;
      }
      cursor = id;
    } else {
      LOTUSX_ENSURE(n.depth == 0) << "root depth " << n.depth;
    }
    LOTUSX_ENSURE(n.subtree_end >= id)
        << "node " << id << " subtree_end " << n.subtree_end;
    if (n.kind == NodeKind::kText) {
      LOTUSX_ENSURE(n.tag == kInvalidTagId) << "text node " << id
                                            << " has a tag";
    } else {
      LOTUSX_ENSURE(n.tag >= 0 && n.tag < num_tags())
          << "node " << id << " tag " << n.tag;
    }
    if (n.kind == NodeKind::kElement) {
      LOTUSX_ENSURE(n.value == -1) << "element " << id << " has a value";
    } else {
      LOTUSX_ENSURE(n.first_child == kInvalidNodeId)
          << "non-element " << id << " has children";
      LOTUSX_ENSURE(n.subtree_end == id)
          << "non-element " << id << " has a subtree";
      LOTUSX_ENSURE(n.value >= 0 &&
                    static_cast<size_t>(n.value) < texts_.size())
          << "node " << id << " value index " << n.value;
    }
  }
  // Closing pass: each parent's last child must terminate the sibling
  // chain, and the subtree extent must equal the last child's extent.
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    NodeId last = expected_next_child[static_cast<size_t>(id)];
    if (last == kInvalidNodeId) {
      LOTUSX_ENSURE(n.first_child == kInvalidNodeId)
          << "node " << id << " first_child points at nothing";
      LOTUSX_ENSURE(n.subtree_end == id)
          << "childless node " << id << " subtree_end " << n.subtree_end;
    } else {
      LOTUSX_ENSURE(nodes_[static_cast<size_t>(last)].next_sibling ==
                    kInvalidNodeId)
          << "last child " << last << " of node " << id
          << " has a next sibling";
      LOTUSX_ENSURE(n.subtree_end ==
                    nodes_[static_cast<size_t>(last)].subtree_end)
          << "node " << id << " subtree_end " << n.subtree_end
          << " but last child ends at "
          << nodes_[static_cast<size_t>(last)].subtree_end;
    }
  }
  return Status::OK();
}

TagId Document::FindTag(std::string_view tag) const {
  auto it = tag_ids_.find(std::string(tag));
  return it == tag_ids_.end() ? kInvalidTagId : it->second;
}

std::string Document::ContentString(NodeId element) const {
  DCHECK(IsElement(element));
  std::string content;
  for (NodeId child = node(element).first_child; child != kInvalidNodeId;
       child = node(child).next_sibling) {
    if (node(child).kind == NodeKind::kText) {
      if (!content.empty()) content += ' ';
      content.append(TrimAscii(Value(child)));
    }
  }
  return content;
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> children;
  for (NodeId child = node(id).first_child; child != kInvalidNodeId;
       child = node(child).next_sibling) {
    children.push_back(child);
  }
  return children;
}

size_t Document::MemoryUsage() const {
  size_t bytes = nodes_.capacity() * sizeof(Node) +
                 last_child_.capacity() * sizeof(NodeId);  // 0 once sealed
  for (const std::string& s : tag_names_) bytes += s.capacity();
  for (const std::string& s : texts_) bytes += s.capacity() + sizeof(s);
  bytes += tag_ids_.size() * (sizeof(std::string) + sizeof(TagId) + 32);
  return bytes;
}

}  // namespace lotusx::xml
