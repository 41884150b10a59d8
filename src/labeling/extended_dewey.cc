#include "labeling/extended_dewey.h"

#include <algorithm>
#include <unordered_set>

namespace lotusx::labeling {

namespace {

XTagId NodeXTag(const xml::Document& document, xml::NodeId id,
                XTagId text_tag) {
  const xml::Document::Node& node = document.node(id);
  return node.kind == xml::NodeKind::kText ? text_tag : node.tag;
}

}  // namespace

bool IsParentLabel(DeweyView a, DeweyView b) {
  return a.size() + 1 == b.size() &&
         std::equal(a.begin(), a.end(), b.begin());
}

int CompareLabels(DeweyView a, DeweyView b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

TagTransducer TagTransducer::Build(const xml::Document& document) {
  CHECK(document.finalized());
  TagTransducer transducer;
  transducer.text_tag_ = document.num_tags();
  size_t universe = static_cast<size_t>(document.num_tags()) + 1;
  transducer.children_.resize(universe);
  transducer.child_index_.resize(universe);

  // Collect distinct child tags per parent tag.
  std::vector<std::unordered_set<XTagId>> seen(universe);
  for (xml::NodeId id = 1; id < document.num_nodes(); ++id) {
    xml::NodeId parent = document.node(id).parent;
    XTagId parent_tag = NodeXTag(document, parent, transducer.text_tag_);
    XTagId child_tag = NodeXTag(document, id, transducer.text_tag_);
    if (seen[static_cast<size_t>(parent_tag)].insert(child_tag).second) {
      transducer.children_[static_cast<size_t>(parent_tag)].push_back(
          child_tag);
    }
  }
  // Deterministic order (ascending tag id) so decode agrees with encode
  // regardless of document traversal order.
  for (size_t tag = 0; tag < universe; ++tag) {
    std::vector<XTagId>& children = transducer.children_[tag];
    std::sort(children.begin(), children.end());
    for (size_t i = 0; i < children.size(); ++i) {
      transducer.child_index_[tag].emplace(children[i],
                                           static_cast<int32_t>(i));
    }
  }
  return transducer;
}

const std::vector<XTagId>& TagTransducer::ChildTags(XTagId tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= children_.size()) return empty_;
  return children_[static_cast<size_t>(tag)];
}

int32_t TagTransducer::ChildIndex(XTagId parent, XTagId child) const {
  if (parent < 0 || static_cast<size_t>(parent) >= child_index_.size()) {
    return -1;
  }
  const auto& index = child_index_[static_cast<size_t>(parent)];
  auto it = index.find(child);
  return it == index.end() ? -1 : it->second;
}

size_t TagTransducer::MemoryUsage() const {
  size_t bytes = 0;
  for (const auto& v : children_) bytes += v.capacity() * sizeof(XTagId);
  for (const auto& m : child_index_) {
    bytes += m.size() * (sizeof(XTagId) + sizeof(int32_t) + 16);
  }
  return bytes;
}

ExtendedDeweyStore ExtendedDeweyStore::Build(
    const xml::Document& document, const TagTransducer& transducer) {
  CHECK(document.finalized());
  ExtendedDeweyStore store;
  int32_t n = document.num_nodes();
  // Each node's label length equals its depth.
  store.offsets_.resize(static_cast<size_t>(n) + 1, 0);
  int64_t total = 0;
  for (xml::NodeId id = 0; id < n; ++id) {
    store.offsets_[static_cast<size_t>(id)] = static_cast<int32_t>(total);
    total += document.node(id).depth;
  }
  store.offsets_[static_cast<size_t>(n)] = static_cast<int32_t>(total);
  store.components_.resize(static_cast<size_t>(total));

  // Last component handed out per parent node (-1 before the first child).
  std::vector<int32_t> last_component(static_cast<size_t>(n), -1);
  for (xml::NodeId id = 1; id < n; ++id) {
    xml::NodeId parent = document.node(id).parent;
    XTagId parent_tag = NodeXTag(document, parent, transducer.text_tag());
    XTagId child_tag = NodeXTag(document, id, transducer.text_tag());
    int32_t k =
        static_cast<int32_t>(transducer.ChildTags(parent_tag).size());
    int32_t i = transducer.ChildIndex(parent_tag, child_tag);
    CHECK_GE(i, 0) << "transducer missing edge " << parent_tag << "->"
                   << child_tag;
    // Smallest c > last with c ≡ i (mod k).
    int32_t c = last_component[static_cast<size_t>(parent)] + 1;
    c += ((i - (c % k)) % k + k) % k;
    last_component[static_cast<size_t>(parent)] = c;

    int32_t offset = store.offsets_[static_cast<size_t>(id)];
    int32_t parent_offset = store.offsets_[static_cast<size_t>(parent)];
    int32_t parent_len = document.node(parent).depth;
    std::copy(store.components_.begin() + parent_offset,
              store.components_.begin() + parent_offset + parent_len,
              store.components_.begin() + offset);
    store.components_[static_cast<size_t>(offset + parent_len)] = c;
  }
  return store;
}

std::vector<XTagId> ExtendedDeweyStore::DecodeTagPath(
    const TagTransducer& transducer, XTagId root_tag, DeweyView label) {
  std::vector<XTagId> path;
  DecodeTagPath(transducer, root_tag, label, &path);
  return path;
}

void ExtendedDeweyStore::DecodeTagPath(const TagTransducer& transducer,
                                       XTagId root_tag, DeweyView label,
                                       std::vector<XTagId>* path) {
  path->clear();
  path->reserve(label.size() + 1);
  path->push_back(root_tag);
  XTagId current = root_tag;
  for (int32_t component : label) {
    const std::vector<XTagId>& children = transducer.ChildTags(current);
    CHECK(!children.empty()) << "cannot decode below leaf tag " << current;
    size_t i = static_cast<size_t>(component) % children.size();
    current = children[i];
    path->push_back(current);
  }
}

}  // namespace lotusx::labeling
