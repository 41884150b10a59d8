#include "twig/schema_match.h"

#include <algorithm>

#include "common/string_util.h"

namespace lotusx::twig {

namespace {

using index::DataGuide;
using index::PathId;

/// Paths whose own properties satisfy query node q (tag + value
/// requirement), ignoring structure.
std::vector<bool> LocalCandidates(const index::IndexedDocument& indexed,
                                  const TwigQuery& query, QueryNodeId q) {
  const DataGuide& guide = indexed.dataguide();
  const xml::Document& document = indexed.document();
  size_t n = static_cast<size_t>(guide.num_paths());
  std::vector<bool> ok(n, false);
  const twig::QueryNode& node = query.node(q);
  // An element without direct text has the empty value, which satisfies
  // only an equality whose literal trims to empty.
  const bool needs_text =
      node.predicate.active() &&
      !(node.predicate.op == ValuePredicate::Op::kEquals &&
        TrimAscii(node.predicate.text).empty());
  auto mark = [&](PathId p) {
    const DataGuide::PathNode& path = guide.node(p);
    if (needs_text) {
      bool is_attribute = !document.tag_name(path.tag).empty() &&
                          document.tag_name(path.tag)[0] == '@';
      if (!is_attribute && path.text_count == 0) return;
    }
    ok[static_cast<size_t>(p)] = true;
  };
  if (node.tag == "*") {
    for (PathId p = 0; p < guide.num_paths(); ++p) {
      std::string_view tag = document.tag_name(guide.node(p).tag);
      if (!tag.empty() && tag[0] != '@') mark(p);
    }
  } else {
    xml::TagId tag = document.FindTag(node.tag);
    for (PathId p : guide.PathsWithTag(tag)) mark(p);
  }
  return ok;
}


}  // namespace

std::vector<std::vector<index::PathId>> SchemaBindings(
    const index::IndexedDocument& indexed, const TwigQuery& query) {
  const DataGuide& guide = indexed.dataguide();
  size_t paths = static_cast<size_t>(guide.num_paths());
  std::vector<std::vector<bool>> ok(static_cast<size_t>(query.size()));
  // Bottom-up pass: children are numbered after parents, so iterating in
  // reverse resolves subtrees before their roots.
  for (QueryNodeId q = query.size() - 1; q >= 0; --q) {
    ok[static_cast<size_t>(q)] = LocalCandidates(indexed, query, q);
    for (QueryNodeId child : query.node(q).children) {
      // Restrict to paths that have a satisfying child binding.
      std::vector<bool> supported(paths, false);
      Axis axis = query.node(child).incoming_axis;
      for (PathId p = 0; p < guide.num_paths(); ++p) {
        if (!ok[static_cast<size_t>(child)][static_cast<size_t>(p)]) {
          continue;
        }
        if (axis == Axis::kChild) {
          PathId parent = guide.node(p).parent;
          if (parent != index::kInvalidPathId) {
            supported[static_cast<size_t>(parent)] = true;
          }
        } else {
          for (PathId walk = guide.node(p).parent;
               walk != index::kInvalidPathId;
               walk = guide.node(walk).parent) {
            supported[static_cast<size_t>(walk)] = true;
          }
        }
      }
      for (size_t p = 0; p < paths; ++p) {
        ok[static_cast<size_t>(q)][p] =
            ok[static_cast<size_t>(q)][p] && supported[p];
      }
    }
  }
  // Top-down pass: keep only paths reachable under some parent binding.
  if (!ok.empty() && query.root_axis() == Axis::kChild) {
    for (size_t p = 1; p < paths; ++p) ok[0][p] = false;
  }
  for (QueryNodeId q = 1; q < query.size(); ++q) {
    QueryNodeId parent = query.node(q).parent;
    Axis axis = query.node(q).incoming_axis;
    for (PathId p = 0; p < guide.num_paths(); ++p) {
      if (!ok[static_cast<size_t>(q)][static_cast<size_t>(p)]) continue;
      bool reachable = false;
      if (axis == Axis::kChild) {
        PathId pp = guide.node(p).parent;
        reachable = pp != index::kInvalidPathId &&
                    ok[static_cast<size_t>(parent)][static_cast<size_t>(pp)];
      } else {
        for (PathId walk = guide.node(p).parent;
             walk != index::kInvalidPathId && !reachable;
             walk = guide.node(walk).parent) {
          reachable =
              ok[static_cast<size_t>(parent)][static_cast<size_t>(walk)];
        }
      }
      if (!reachable) {
        ok[static_cast<size_t>(q)][static_cast<size_t>(p)] = false;
      }
    }
  }
  // Flatten.
  std::vector<std::vector<PathId>> bindings(
      static_cast<size_t>(query.size()));
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    for (PathId p = 0; p < guide.num_paths(); ++p) {
      if (ok[static_cast<size_t>(q)][static_cast<size_t>(p)]) {
        bindings[static_cast<size_t>(q)].push_back(p);
      }
    }
  }
  return bindings;
}


}  // namespace lotusx::twig
