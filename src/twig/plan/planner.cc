#include <array>
#include <cmath>
#include <cstdio>
#include <string>

#include "twig/plan/physical_plan.h"

namespace lotusx::twig::plan {

std::string_view OperatorName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kStreamScan:
      return "stream-scan";
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

namespace {

/// Per-row work prices of the joins, in units of one TwigStack row. A
/// join's cost is the predicate-scaled rows it reads (a scan's
/// estimated_rows) times its price; kAuto runs the cheapest. The prices
/// were fitted by choosing, per query, the fastest of the forced joins:
/// on the E3 and E8 rows (bench_twig_algorithms --scale 10,
/// bench_selectivity) and on the distinct twigs of servebench's seed-1
/// twig_rank and relax_rewrite streams.
///
/// TwigStack: one getNext step per row of every query node's stream.
constexpr double kTwigStackRowPrice = 1.0;
/// PathStack: the same rows on a path without TwigStack's getNext
/// recursion; E3's path rows run it in 0.56-0.93x TwigStack's time.
constexpr double kPathStackRowPrice = 0.7;
/// TJFast, per leaf row read: a fixed part, plus a part per DataGuide
/// level of the leaf, because decoding the extended-Dewey label, aligning
/// the query path and walking to the bound ancestors all follow the
/// leaf's root path.
constexpr double kTjFastRowPrice = 0.5;
constexpr double kTjFastLevelPrice = 0.5;
/// TJFast reads its smallest leaf stream in full and the others only
/// inside the subtrees the rows read before them bind (the cross-leaf
/// skip). This is the share of those later streams it still reads,
/// measured on twig_rank's twigs (0.11 of their rows, weighted).
constexpr double kTjFastLaterLeafShare = 0.1;

/// The rows a scan of `q`'s stream yields: its length scaled by the
/// predicate's selectivity.
double ScanRows(const SelectivityEstimate& estimate, QueryNodeId q) {
  const auto qi = static_cast<size_t>(q);
  return estimate.node_stream_size[qi] *
         estimate.node_predicate_selectivity[qi];
}

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

/// The one cost function: the work of running `algorithm`'s join on a
/// query with these estimates, in TwigStack rows. kAuto resolves to the
/// cheapest candidate, and the join operator records its cost, so
/// EXPLAIN shows the number the choice compared.
double JoinCost(Algorithm algorithm, const TwigQuery& query,
                const SelectivityEstimate& estimate) {
  double rows = 0;
  for (QueryNodeId q = 0; q < query.size(); ++q) {
    rows += ScanRows(estimate, q);
  }
  switch (algorithm) {
    case Algorithm::kStructuralJoin:
    case Algorithm::kStructuralJoinReordered: {
      // Never a kAuto candidate: priced for EXPLAIN of a forced plan,
      // as the stack rows plus every node's bindings materialized into
      // some partial table.
      double intermediates = 0;
      for (double cardinality : estimate.node_cardinality) {
        intermediates += cardinality;
      }
      return kTwigStackRowPrice * (rows + intermediates);
    }
    case Algorithm::kPathStack:
      return kPathStackRowPrice * rows;
    case Algorithm::kTwigStack:
      return kTwigStackRowPrice * rows;
    case Algorithm::kTJFast: {
      // The smallest leaf stream (first in query order on ties) is the
      // one TJFast reads in full.
      QueryNodeId smallest = kInvalidQueryNode;
      for (QueryNodeId q = 0; q < query.size(); ++q) {
        if (!query.node(q).children.empty()) continue;
        if (smallest == kInvalidQueryNode ||
            ScanRows(estimate, q) < ScanRows(estimate, smallest)) {
          smallest = q;
        }
      }
      double cost = 0;
      for (QueryNodeId q = 0; q < query.size(); ++q) {
        if (!query.node(q).children.empty()) continue;
        const double share = q == smallest ? 1.0 : kTjFastLaterLeafShare;
        cost += share * ScanRows(estimate, q) *
                (kTjFastRowPrice +
                 kTjFastLevelPrice *
                     estimate.node_depth[static_cast<size_t>(q)]);
      }
      return cost;
    }
    case Algorithm::kAuto:
      break;
  }
  return 0;
}

/// kAuto's candidates, priced by JoinCost in the tie order PathStack
/// (paths only), TwigStack, TJFast, and the cheapest of them: on equal
/// costs the earlier wins.
struct PricedCandidates {
  struct Join {
    Algorithm algorithm = Algorithm::kAuto;
    double cost = 0;
  };
  std::array<Join, 3> joins;
  size_t count = 0;
  size_t cheapest = 0;
};

PricedCandidates PriceCandidates(const TwigQuery& query,
                                 const SelectivityEstimate& estimate) {
  PricedCandidates priced;
  for (Algorithm candidate : {Algorithm::kPathStack, Algorithm::kTwigStack,
                              Algorithm::kTJFast}) {
    if (candidate == Algorithm::kPathStack && !query.IsPath()) continue;
    priced.joins[priced.count++] = {candidate,
                                    JoinCost(candidate, query, estimate)};
  }
  for (size_t i = 1; i < priced.count; ++i) {
    if (priced.joins[i].cost < priced.joins[priced.cheapest].cost) {
      priced.cheapest = i;
    }
  }
  return priced;
}

/// "tjfast cost=945.8": how ChoiceReason names a priced join.
std::string PricedName(const PricedCandidates::Join& join) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), " cost=%.1f", join.cost);
  return std::string(AlgorithmName(join.algorithm)) + buffer;
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
  plan.estimate = EstimateSelectivity(indexed_, query);

  // Resolve the join algorithm: kAuto runs the cheapest join that can
  // answer the query. A forced hint is honored verbatim, including
  // kPathStack on a non-path query, which fails at execution exactly as
  // it always has. Only numbers are computed here; ChoiceReason renders
  // the comparison when EXPLAIN asks for it.
  double join_cost = 0;
  if (hints.algorithm == Algorithm::kAuto) {
    const PricedCandidates priced = PriceCandidates(query, plan.estimate);
    plan.algorithm = priced.joins[priced.cheapest].algorithm;
    join_cost = priced.joins[priced.cheapest].cost;
  } else {
    plan.algorithm = hints.algorithm;
    plan.algorithm_forced = true;
    join_cost = JoinCost(plan.algorithm, query, plan.estimate);
  }

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

  // Leaf operators: one scan per stream the chosen algorithm reads —
  // TJFast touches leaf streams only.
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
    scan.estimated_rows = ScanRows(plan.estimate, q);
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
    join_inputs.push_back(add_op(std::move(scan)));
  }

  OperatorNode join;
  switch (plan.algorithm) {
    case Algorithm::kStructuralJoin:
    case Algorithm::kStructuralJoinReordered:
      join.kind = OperatorKind::kBinaryStructuralJoin;
      join.detail = plan.algorithm == Algorithm::kStructuralJoinReordered
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
  join.estimated_cost = join_cost;
  join.children = std::move(join_inputs);
  int top = add_op(std::move(join));

  if (holistic_merge) {
    OperatorNode merge;
    merge.kind = OperatorKind::kMergeExpand;
    // The merge prunes partial tuples that violate an order constraint
    // after every join step, so no order filter follows it.
    merge.detail = query.HasOrderConstraints()
                       ? "ordered merge; order pruning"
                       : "ordered merge of path solutions";
    merge.estimated_rows = match;
    merge.estimated_cost = path_solutions + match;
    merge.children = {top};
    top = add_op(std::move(merge));
  }

  // The binary join cannot prune during its join: its complete matches
  // are filtered instead. (A path has no order constraint.)
  if (IsBinaryStructuralJoin(plan.algorithm) && query.HasOrderConstraints()) {
    OperatorNode filter;
    filter.kind = OperatorKind::kOrderFilter;
    filter.detail = "post-filter complete matches";
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
  sort.estimated_cost = IsBinaryStructuralJoin(plan.algorithm) ? match : 0;
  sort.children = {top};
  add_op(std::move(sort));
  return plan;
}

std::string ChoiceReason(const PhysicalPlan& plan) {
  if (plan.algorithm_forced) return "forced by caller hint";
  const PricedCandidates priced = PriceCandidates(plan.query, plan.estimate);
  std::string reason =
      "cheapest join: " + PricedName(priced.joins[priced.cheapest]) + " vs ";
  for (size_t i = 0, named = 0; i < priced.count; ++i) {
    if (i == priced.cheapest) continue;
    if (named++ > 0) reason += ", ";
    reason += PricedName(priced.joins[i]);
  }
  return reason;
}

}  // namespace lotusx::twig::plan
