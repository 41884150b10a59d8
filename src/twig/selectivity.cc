#include "twig/selectivity.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "twig/schema_match.h"

namespace lotusx::twig {

namespace {

/// Selectivity of a value predicate under term independence. Where the
/// node has a concrete tag, token frequencies are conditioned on values
/// of *that tag* (the per-tag tries of the term index) — "2001" is rare
/// globally but common inside <year> — falling back to global document
/// frequencies for wildcards. Equality gets a mild damping on top of the
/// token match because it additionally pins the full string.
double PredicateSelectivity(const index::IndexedDocument& indexed,
                            const QueryNode& node) {
  const ValuePredicate& predicate = node.predicate;
  if (!predicate.active()) return 1.0;
  const index::TermIndex& terms = indexed.terms();
  const index::Trie* tag_trie = nullptr;
  double tag_count = 0;
  if (node.tag != "*") {
    xml::TagId tag = indexed.document().FindTag(node.tag);
    tag_trie = terms.term_trie_for_tag(tag);
    tag_count = static_cast<double>(indexed.tag_streams().count(tag));
  }
  double n = std::max<uint32_t>(terms.num_value_nodes(), 1);
  std::vector<std::string> tokens = TokenizeKeywords(predicate.text);
  if (tokens.empty()) {
    return predicate.op == ValuePredicate::Op::kEquals ? 1.0 / n : 0.0;
  }
  double selectivity = 1.0;
  for (const std::string& token : tokens) {
    double fraction;
    if (tag_trie != nullptr && tag_count > 0) {
      fraction = static_cast<double>(tag_trie->WeightOf(token)) / tag_count;
    } else {
      fraction = static_cast<double>(terms.DocFrequency(token)) / n;
    }
    selectivity *= std::min(fraction, 1.0);
  }
  if (predicate.op == ValuePredicate::Op::kEquals) selectivity *= 0.9;
  return selectivity;
}

}  // namespace

SelectivityEstimate EstimateSelectivity(
    const index::IndexedDocument& indexed, const TwigQuery& query) {
  SelectivityEstimate estimate;
  estimate.node_cardinality.assign(static_cast<size_t>(query.size()), 0.0);
  estimate.node_stream_size.assign(static_cast<size_t>(query.size()), 0.0);
  estimate.node_schema_occurrences.assign(static_cast<size_t>(query.size()),
                                          0.0);
  estimate.node_predicate_selectivity.assign(
      static_cast<size_t>(query.size()), 1.0);
  estimate.node_depth.assign(static_cast<size_t>(query.size()), 0.0);
  estimate.node_posting_blocks.assign(static_cast<size_t>(query.size()),
                                      0.0);
  estimate.node_block_fill.assign(static_cast<size_t>(query.size()), 0.0);
  estimate.node_key_span.assign(static_cast<size_t>(query.size()), 0.0);
  if (query.Validate() != Status::OK()) {
    estimate.node_schema_paths.resize(static_cast<size_t>(query.size()));
    return estimate;
  }

  const index::DataGuide& guide = indexed.dataguide();
  estimate.node_schema_paths = SchemaBindings(indexed, query);

  // Per-node expected bindings: occurrences over the node's feasible
  // paths, scaled by its predicate's selectivity.
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    double occurrences = 0;
    double weighted_depth = 0;
    for (index::PathId p :
         estimate.node_schema_paths[static_cast<size_t>(q)]) {
      occurrences += guide.node(p).count;
      weighted_depth +=
          static_cast<double>(guide.node(p).count) * guide.node(p).depth;
    }
    double selectivity = PredicateSelectivity(indexed, query.node(q));
    estimate.node_schema_occurrences[static_cast<size_t>(q)] = occurrences;
    if (occurrences > 0) {
      estimate.node_depth[static_cast<size_t>(q)] =
          weighted_depth / occurrences;
    }
    estimate.node_predicate_selectivity[static_cast<size_t>(q)] = selectivity;
    estimate.node_cardinality[static_cast<size_t>(q)] =
        occurrences * selectivity;
  }

  // Match estimate: root cardinality times the per-edge fanout factors
  // (child bindings per parent binding), independence across branches.
  double matches = estimate.node_cardinality[0];
  for (QueryNodeId q = 1; q < query.size(); ++q) {
    double parent = estimate.node_cardinality[static_cast<size_t>(
        query.node(q).parent)];
    if (parent <= 0) {
      matches = 0;
      break;
    }
    matches *= estimate.node_cardinality[static_cast<size_t>(q)] / parent;
  }
  // Along a chain the product telescopes to f(leaf); every branch
  // multiplies in its own fanout — the classic independence estimate.
  estimate.match_cardinality = std::max(matches, 0.0);

  // Raw stream sizes and posting-block shapes.
  const xml::Document& document = indexed.document();
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    const QueryNode& node = query.node(q);
    double stream;
    if (node.tag == "*") {
      stream = document.num_nodes();  // upper bound: wildcard stream
    } else {
      xml::TagId tag = document.FindTag(node.tag);
      stream = static_cast<double>(indexed.tag_streams().count(tag));
      index::PostingBlocks::BlockStats blocks =
          indexed.tag_streams().blocks(tag).Stats();
      estimate.node_posting_blocks[static_cast<size_t>(q)] =
          static_cast<double>(blocks.blocks);
      estimate.node_block_fill[static_cast<size_t>(q)] = blocks.avg_fill;
      estimate.node_key_span[static_cast<size_t>(q)] =
          static_cast<double>(blocks.key_span);
    }
    estimate.node_stream_size[static_cast<size_t>(q)] = stream;
  }
  return estimate;
}

bool SelectivityEstimate::SchemaEmpty() const {
  return std::any_of(
      node_schema_paths.begin(), node_schema_paths.end(),
      [](const std::vector<index::PathId>& paths) { return paths.empty(); });
}

}  // namespace lotusx::twig
