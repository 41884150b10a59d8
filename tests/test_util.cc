#include "tests/test_util.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "twig/candidates.h"
#include "twig/order_filter.h"

namespace lotusx::testing {

xml::Document MustParse(std::string_view xml) {
  auto result = xml::ParseDocument(xml);
  CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

index::IndexedDocument MustIndex(std::string_view xml) {
  return index::IndexedDocument(MustParse(xml));
}

namespace {

/// Recursively extends `bindings` by assigning query node `q`.
void Assign(const index::IndexedDocument& indexed,
            const twig::TwigQuery& query, twig::QueryNodeId q,
            std::vector<xml::NodeId>* bindings,
            std::vector<twig::Match>* out) {
  const xml::Document& document = indexed.document();
  const twig::QueryNode& node = query.node(q);
  // Candidate document nodes for q.
  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    if (!twig::NodeSatisfies(indexed, query, q, id)) continue;
    // Structural constraint vs the already-bound parent.
    if (node.parent == twig::kInvalidQueryNode) {
      if (query.root_axis() == twig::Axis::kChild &&
          id != document.root()) {
        continue;
      }
    } else {
      xml::NodeId parent_binding =
          (*bindings)[static_cast<size_t>(node.parent)];
      if (node.incoming_axis == twig::Axis::kChild) {
        if (document.node(id).parent != parent_binding) continue;
      } else {
        if (!document.IsAncestor(parent_binding, id)) continue;
      }
    }
    (*bindings)[static_cast<size_t>(q)] = id;
    if (q + 1 == query.size()) {
      twig::Match match;
      match.bindings = *bindings;
      out->push_back(std::move(match));
    } else {
      Assign(indexed, query, q + 1, bindings, out);
    }
    (*bindings)[static_cast<size_t>(q)] = xml::kInvalidNodeId;
  }
}

}  // namespace

std::vector<twig::Match> BruteForceMatches(
    const index::IndexedDocument& indexed, const twig::TwigQuery& query,
    bool apply_order) {
  std::vector<twig::Match> matches;
  std::vector<xml::NodeId> bindings(static_cast<size_t>(query.size()),
                                    xml::kInvalidNodeId);
  Assign(indexed, query, 0, &bindings, &matches);
  if (apply_order) {
    twig::FilterByOrder(indexed.document(), query, &matches);
  }
  std::sort(matches.begin(), matches.end());
  return matches;
}

std::string ParamName(twig::Algorithm algorithm) {
  std::string name(twig::AlgorithmName(algorithm));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

twig::TwigQuery WithoutOrder(const twig::TwigQuery& query) {
  twig::TwigQuery unordered = query;
  for (twig::QueryNodeId q = 0; q < unordered.size(); ++q) {
    unordered.SetOrdered(q, false);
  }
  return unordered;
}

}  // namespace lotusx::testing
