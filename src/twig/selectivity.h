#ifndef LOTUSX_TWIG_SELECTIVITY_H_
#define LOTUSX_TWIG_SELECTIVITY_H_

#include <vector>

#include "index/indexed_document.h"
#include "twig/evaluator.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Cardinality estimates for one twig query, derived purely from the
/// DataGuide (path occurrence counts) and term statistics — no data
/// access. The per-node estimate counts expected bindings of that node;
/// the match estimate uses the classic independence assumption across
/// branches.
struct SelectivityEstimate {
  /// Per-node DataGuide positions: SchemaBindings' exact set of paths
  /// (ascending PathId) the node binds in some schema-level embedding.
  /// The one DataGuide walk of a plan; schema pruning, EXPLAIN and the
  /// schema-empty short-circuit all read it from here. An empty set
  /// proves the query has no match (DESIGN.md "Schema-empty means
  /// empty").
  std::vector<std::vector<index::PathId>> node_schema_paths;
  /// Expected bindings per query node (schema-filtered, predicate-scaled).
  std::vector<double> node_cardinality;
  /// Per-node raw candidate stream length: tag occurrences, or the whole
  /// document for "*" — what a stream scan reads before any filtering.
  std::vector<double> node_stream_size;
  /// Per-node occurrences over the node's DataGuide-feasible paths (the
  /// stream after schema pruning, before predicate filtering).
  std::vector<double> node_schema_occurrences;
  /// Per-node selectivity of the value predicate (1.0 when absent).
  std::vector<double> node_predicate_selectivity;
  /// Per-node posting-block shape of the node's tag stream (zeros for
  /// wildcards, which have no single stream): number of compressed
  /// blocks, average entries per block, and covered key span. These feed
  /// the planner's block-skip cost term — a selective cursor consumer
  /// pays per *decoded block*, not per posting.
  std::vector<double> node_posting_blocks;
  std::vector<double> node_block_fill;
  std::vector<double> node_key_span;
  /// Expected number of complete twig matches.
  double match_cardinality = 0;
  /// Candidate stream sizes the algorithms would read: all nodes
  /// (TwigStack/structural join) vs leaves only (TJFast).
  double total_stream_size = 0;
  double leaf_stream_size = 0;

  /// True when some query node has no DataGuide position, which proves
  /// the query has no match. The sets empty together: an unbound child
  /// leaves its parent unsupported, and an unbound parent leaves its
  /// children unreachable.
  bool SchemaEmpty() const;
};

/// Estimates cardinalities for `query` over `indexed`. Always succeeds
/// for valid queries; an unsatisfiable query estimates 0 everywhere.
SelectivityEstimate EstimateSelectivity(
    const index::IndexedDocument& indexed, const TwigQuery& query);

/// Cost-based algorithm choice: PathStack for paths; otherwise TJFast
/// when the query's leaf streams are substantially smaller than the total
/// streams (its decode work pays off), else TwigStack. This is what
/// EvalOptions{.algorithm = kAuto} resolves to. Takes the query's
/// estimate so a caller that already has one (the planner) does not walk
/// the DataGuide again.
Algorithm ChooseAlgorithm(const TwigQuery& query,
                          const SelectivityEstimate& estimate);

/// Same, estimating `query` first.
Algorithm ChooseAlgorithm(const index::IndexedDocument& indexed,
                          const TwigQuery& query);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_SELECTIVITY_H_
