#include <cmath>
#include <cstdio>
#include <string>

#include "twig/plan/physical_plan.h"

namespace lotusx::twig::plan {

std::string_view OperatorName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kStreamScan:
      return "stream-scan";
    case OperatorKind::kSchemaPrune:
      return "schema-prune";
    case OperatorKind::kBinaryStructuralJoin:
      return "binary-structural-join";
    case OperatorKind::kPathStackJoin:
      return "pathstack-join";
    case OperatorKind::kTwigStackJoin:
      return "twigstack-join";
    case OperatorKind::kTJFastJoin:
      return "tjfast-join";
    case OperatorKind::kMergeExpand:
      return "merge-expand";
    case OperatorKind::kOrderFilter:
      return "order-filter";
    case OperatorKind::kOutputSort:
      return "output-sort";
    case OperatorKind::kSchemaEmpty:
      return "schema-empty";
  }
  return "?";
}

int PhysicalPlan::FindOperator(OperatorKind kind) const {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == kind) return static_cast<int>(i);
  }
  return -1;
}

PlannerHints HintsFrom(const EvalOptions& options) {
  PlannerHints hints;
  hints.algorithm = options.algorithm;
  hints.apply_order = options.apply_order;
  hints.integrate_order = options.integrate_order;
  hints.reorder_binary_joins = options.reorder_binary_joins;
  hints.schema_prune_streams = options.schema_prune_streams;
  return hints;
}

namespace {

/// TJFast reads only leaf streams but pays a label decode per element;
/// pricing that decode at 1/0.6 per row makes the cost comparison against
/// TwigStack's full scan reproduce ChooseAlgorithm's calibrated 60%
/// leaf-fraction threshold exactly.
constexpr double kTjFastDecodeFactor = 1.0 / 0.6;

/// Estimated path solutions of the holistic phase 1: along one
/// root-to-leaf path the per-edge fanouts telescope, so each leaf path
/// contributes its leaf's cardinality.
double EstimatedPathSolutions(const TwigQuery& query,
                              const SelectivityEstimate& estimate) {
  double solutions = 0;
  for (QueryNodeId leaf : query.Leaves()) {
    solutions += estimate.node_cardinality[static_cast<size_t>(leaf)];
  }
  return solutions;
}

/// Estimated intermediate tuples of the edge-at-a-time binary join: every
/// node's bindings get materialized into some partial table.
double EstimatedBinaryIntermediates(const TwigQuery& query,
                                    const SelectivityEstimate& estimate) {
  double intermediates = 0;
  for (double cardinality : estimate.node_cardinality) {
    intermediates += cardinality;
  }
  (void)query;
  return intermediates;
}

/// Abstract cost (rows read + rows materialized) of running `algorithm`
/// on a query with these estimates — the quantities the kAuto choice
/// compares, recorded in the plan so EXPLAIN can show its work.
double JoinCost(Algorithm algorithm, const TwigQuery& query,
                const SelectivityEstimate& estimate) {
  const double merge = EstimatedPathSolutions(query, estimate) +
                       estimate.match_cardinality;
  switch (algorithm) {
    case Algorithm::kStructuralJoin:
      return estimate.total_stream_size +
             EstimatedBinaryIntermediates(query, estimate) +
             estimate.match_cardinality;
    case Algorithm::kPathStack:
      return estimate.total_stream_size + merge;
    case Algorithm::kTwigStack:
      return estimate.total_stream_size + merge;
    case Algorithm::kTJFast:
      return estimate.leaf_stream_size * kTjFastDecodeFactor + merge;
    case Algorithm::kAuto:
      break;
  }
  return 0;
}

/// The query node a schema-empty plan names: the first whose tag never
/// occurs in the document, else the last node. Every node's DataGuide
/// positions are empty together, so they do not single one out.
QueryNodeId UnboundNodeToName(const TwigQuery& query,
                              const SelectivityEstimate& estimate) {
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    if (estimate.node_stream_size[static_cast<size_t>(q)] == 0) return q;
  }
  return query.size() - 1;
}

std::string FormatPercent(double part, double whole) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%d%%",
                whole > 0 ? static_cast<int>(100.0 * part / whole) : 0);
  return buffer;
}

/// Expected number of posting blocks a scan decodes when the consumer
/// keeps a `selectivity` fraction of its rows and skips the rest via the
/// block index: a block of `fill` entries is decoded iff at least one of
/// its entries survives, i.e. with probability 1 - (1 - sel)^fill. At
/// sel = 1 this degenerates to every block.
double ExpectedBlocksDecoded(double blocks, double fill,
                             double selectivity) {
  if (blocks <= 0 || fill <= 0) return 0;
  double sel = std::min(std::max(selectivity, 0.0), 1.0);
  return blocks * (1.0 - std::pow(1.0 - sel, fill));
}

}  // namespace

StatusOr<PhysicalPlan> Planner::Plan(const TwigQuery& query,
                                     const PlannerHints& hints) const {
  LOTUSX_RETURN_IF_ERROR(query.Validate());
  PhysicalPlan plan;
  plan.query = query;
  plan.apply_order = hints.apply_order;
  plan.reorder_binary_joins = hints.reorder_binary_joins;
  plan.schema_prune = hints.schema_prune_streams;
  plan.estimate = EstimateSelectivity(indexed_, query);

  // Resolve the join algorithm. ChooseAlgorithm remains the single source
  // of truth for kAuto (its threshold is what JoinCost reproduces); a
  // forced hint is honored verbatim, including kPathStack on a non-path
  // query, which fails at execution exactly as it always has.
  if (hints.algorithm == Algorithm::kAuto) {
    plan.algorithm = ChooseAlgorithm(query, plan.estimate);
    if (plan.algorithm == Algorithm::kPathStack) {
      plan.choice_reason =
          "path query; holistic path join reads each stream once";
    } else if (plan.algorithm == Algorithm::kTJFast) {
      plan.choice_reason =
          "leaf streams are " +
          FormatPercent(plan.estimate.leaf_stream_size,
                        plan.estimate.total_stream_size) +
          " of total; decoding from leaf labels pays off";
    } else {
      plan.choice_reason =
          "leaf streams dominate; containment-label join is cheaper";
    }
  } else {
    plan.algorithm = hints.algorithm;
    plan.choice_reason = "forced by caller hint";
  }

  // Integrated order checking only exists inside the holistic merge phase.
  plan.integrate_order = hints.apply_order && hints.integrate_order &&
                         query.HasOrderConstraints() &&
                         (plan.algorithm == Algorithm::kTwigStack ||
                          plan.algorithm == Algorithm::kTJFast);

  // A query node with no DataGuide position has no binding in any match
  // (DESIGN.md "Schema-empty means empty"), so the plan opens no stream.
  // A forced PathStack on a non-path query keeps its join plan, which
  // fails at execution as it always has.
  if (plan.estimate.SchemaEmpty() &&
      !(plan.algorithm == Algorithm::kPathStack && !query.IsPath())) {
    const QueryNodeId unbound = UnboundNodeToName(query, plan.estimate);
    OperatorNode empty;
    empty.kind = OperatorKind::kSchemaEmpty;
    empty.query_node = unbound;
    empty.detail = "node " + std::to_string(unbound) + " <" +
                   query.node(unbound).tag + "> has no DataGuide position";
    plan.ops.push_back(std::move(empty));
    return plan;
  }

  const double match = plan.estimate.match_cardinality;
  const double path_solutions = EstimatedPathSolutions(query, plan.estimate);
  const bool holistic_merge = plan.algorithm == Algorithm::kTwigStack ||
                              plan.algorithm == Algorithm::kTJFast;

  auto add_op = [&plan](OperatorNode op) {
    plan.ops.push_back(std::move(op));
    return static_cast<int>(plan.ops.size()) - 1;
  };

  // Leaf operators: one scan (optionally wrapped by a schema prune) per
  // stream the chosen algorithm reads — TJFast touches leaf streams only.
  std::vector<QueryNodeId> scan_nodes;
  if (plan.algorithm == Algorithm::kTJFast) {
    scan_nodes = query.Leaves();
  } else {
    for (QueryNodeId q = 0; q < query.size(); ++q) scan_nodes.push_back(q);
  }
  std::vector<int> join_inputs;
  for (QueryNodeId q : scan_nodes) {
    const QueryNode& node = query.node(q);
    const auto qi = static_cast<size_t>(q);
    OperatorNode scan;
    scan.kind = OperatorKind::kStreamScan;
    scan.query_node = q;
    scan.detail = "<" + node.tag + ">";
    if (node.children.empty()) scan.detail += " leaf";
    if (node.predicate.active()) scan.detail += " +predicate";
    scan.estimated_rows = plan.estimate.node_stream_size[qi] *
                          plan.estimate.node_predicate_selectivity[qi];
    // Block-skip cost: a selective consumer pays per decoded block of
    // the compressed stream, not per posting. Wildcard scans have no
    // single stream and keep the row-count cost.
    const double blocks = plan.estimate.node_posting_blocks[qi];
    const double fill = plan.estimate.node_block_fill[qi];
    if (blocks > 0) {
      const double decoded = ExpectedBlocksDecoded(
          blocks, fill, plan.estimate.node_predicate_selectivity[qi]);
      scan.estimated_cost = decoded * fill;
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), " (~%.0f/%.0f blocks)",
                    decoded, blocks);
      scan.detail += buffer;
    } else {
      scan.estimated_cost = plan.estimate.node_stream_size[qi];
    }
    int top = add_op(std::move(scan));
    if (plan.schema_prune) {
      OperatorNode prune;
      prune.kind = OperatorKind::kSchemaPrune;
      prune.query_node = q;
      prune.detail = "DataGuide-feasible positions";
      prune.estimated_rows =
          plan.estimate.node_schema_occurrences[qi] *
          plan.estimate.node_predicate_selectivity[qi];
      prune.estimated_cost = plan.estimate.node_stream_size[qi];
      prune.children = {top};
      top = add_op(std::move(prune));
    }
    join_inputs.push_back(top);
  }

  OperatorNode join;
  switch (plan.algorithm) {
    case Algorithm::kStructuralJoin:
      join.kind = OperatorKind::kBinaryStructuralJoin;
      join.detail = plan.reorder_binary_joins
                        ? "greedy selectivity edge order"
                        : "query edge order";
      join.estimated_rows = match;
      break;
    case Algorithm::kPathStack:
      join.kind = OperatorKind::kPathStackJoin;
      join.detail = "merged document-order stream";
      join.estimated_rows = match;
      break;
    case Algorithm::kTwigStack:
      join.kind = OperatorKind::kTwigStackJoin;
      join.detail = "path solutions";
      join.estimated_rows = path_solutions;
      break;
    case Algorithm::kTJFast:
      join.kind = OperatorKind::kTJFastJoin;
      join.detail = "extended-Dewey alignment, path solutions";
      join.estimated_rows = path_solutions;
      break;
    case Algorithm::kAuto:
      return Status::Internal("unresolved kAuto algorithm in planner");
  }
  join.estimated_cost = JoinCost(plan.algorithm, query, plan.estimate);
  join.children = std::move(join_inputs);
  int top = add_op(std::move(join));

  if (holistic_merge) {
    OperatorNode merge;
    merge.kind = OperatorKind::kMergeExpand;
    merge.detail = plan.integrate_order
                       ? "ordered merge; integrated order pruning"
                       : "ordered merge of path solutions";
    merge.estimated_rows = match;
    merge.estimated_cost = path_solutions + match;
    merge.children = {top};
    top = add_op(std::move(merge));
  }

  if (plan.apply_order && query.HasOrderConstraints()) {
    OperatorNode filter;
    filter.kind = OperatorKind::kOrderFilter;
    filter.detail = plan.integrate_order
                        ? "re-check after integrated pruning (idempotent)"
                        : "post-filter complete matches";
    // No order-selectivity model yet: assume the constraint keeps all
    // matches (the conservative upper bound).
    filter.estimated_rows = match;
    filter.estimated_cost = match;
    filter.children = {top};
    top = add_op(std::move(filter));
  }

  OperatorNode sort;
  sort.kind = OperatorKind::kOutputSort;
  sort.detail = "canonical document order";
  sort.estimated_rows = match;
  // Only the binary structural join sorts; the holistic joins' path merge
  // already emits canonical order, which the executor merely asserts.
  sort.estimated_cost =
      plan.algorithm == Algorithm::kStructuralJoin ? match : 0;
  sort.children = {top};
  add_op(std::move(sort));
  return plan;
}

}  // namespace lotusx::twig::plan
