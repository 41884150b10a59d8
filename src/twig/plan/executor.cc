#include <algorithm>
#include <string>
#include <string_view>

#include "common/invariant.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "twig/candidates.h"
#include "twig/order_filter.h"
#include "twig/path_stack.h"
#include "twig/plan/physical_plan.h"
#include "twig/structural_join.h"
#include "twig/tjfast.h"
#include "twig/twig_stack.h"

namespace lotusx::twig::plan {

namespace {

/// Process-wide per-operator-kind counters
/// (lotusx_plan_operator_{execs,rows,usec}_total{op="..."}): the
/// cumulative view of where plan execution work goes, fed from the same
/// actuals EXPLAIN analyze renders. Registered once; indexed by
/// OperatorKind.
struct OperatorMetrics {
  metrics::Counter* execs = nullptr;
  metrics::Counter* rows = nullptr;
  metrics::Counter* usec = nullptr;
};

const OperatorMetrics& MetricsFor(OperatorKind kind) {
  static const std::vector<OperatorMetrics> table = [] {
    constexpr int kNumKinds =
        static_cast<int>(OperatorKind::kSchemaEmpty) + 1;
    std::vector<OperatorMetrics> metrics_table(kNumKinds);
    metrics::Registry& registry = metrics::Registry::Default();
    for (int i = 0; i < kNumKinds; ++i) {
      const metrics::Labels labels = {
          {"op", std::string(OperatorName(static_cast<OperatorKind>(i)))}};
      metrics_table[static_cast<size_t>(i)] = {
          registry.GetCounter("lotusx_plan_operator_execs_total", labels),
          registry.GetCounter("lotusx_plan_operator_rows_total", labels),
          registry.GetCounter("lotusx_plan_operator_usec_total", labels)};
    }
    return metrics_table;
  }();
  return table[static_cast<size_t>(kind)];
}

/// Process-wide posting-access counters (lotusx_postings_*_total), fed
/// from each query's EvalContext. Registered once, like MetricsFor.
struct PostingMetrics {
  metrics::Counter* blocks_decoded = nullptr;
  metrics::Counter* blocks_skipped = nullptr;
  metrics::Counter* bytes_decoded = nullptr;
};

const PostingMetrics& PostingMetricsTable() {
  static const PostingMetrics table = [] {
    metrics::Registry& registry = metrics::Registry::Default();
    return PostingMetrics{
        registry.GetCounter("lotusx_postings_blocks_decoded_total"),
        registry.GetCounter("lotusx_postings_blocks_skipped_total"),
        registry.GetCounter("lotusx_postings_bytes_decoded_total")};
  }();
  return table;
}

/// lotusx_postings_decode_usec_total, registered on the first query that
/// times its decodes (EXPLAIN analyze), as before.
metrics::Counter* DecodeUsecCounter() {
  static metrics::Counter* const counter =
      metrics::Registry::Default().GetCounter(
          "lotusx_postings_decode_usec_total");
  return counter;
}

/// Runs the join of a plan that has one, with its order filter and
/// output sort, and fills the operators' actuals. Sets the result's
/// elapsed time before the analyze-only passes, which are not part of
/// the query's work.
StatusOr<QueryResult> ExecuteJoin(const index::IndexedDocument& indexed,
                                  PhysicalPlan* plan,
                                  const ExecuteOptions& options,
                                  const Timer& total_timer, EvalContext* ctx) {
  const TwigQuery& query = plan->query;

  QueryResult result;
  Timer join_timer;
  switch (plan->algorithm) {
    case Algorithm::kStructuralJoin:
    case Algorithm::kStructuralJoinReordered:
      result = StructuralJoinEvaluate(
          indexed, query,
          plan->algorithm == Algorithm::kStructuralJoinReordered, ctx);
      break;
    case Algorithm::kPathStack: {
      LOTUSX_ASSIGN_OR_RETURN(result, PathStackEvaluate(indexed, query, ctx));
      break;
    }
    case Algorithm::kTwigStack:
      result = TwigStackEvaluate(indexed, query, ctx);
      break;
    case Algorithm::kTJFast:
      result = TjFastEvaluate(indexed, query, ctx);
      break;
    case Algorithm::kAuto:
      return Status::Internal("unresolved kAuto algorithm in plan");
  }
  const double join_ms = join_timer.ElapsedMillis();
  const uint64_t join_rows = result.matches.size();

  const bool binary = IsBinaryStructuralJoin(plan->algorithm);
  double filter_ms = 0;
  if (binary && query.HasOrderConstraints()) {
    Timer filter_timer;
    FilterByOrder(indexed.document(), query, &result.matches);
    result.stats.matches = result.matches.size();
    filter_ms = filter_timer.ElapsedMillis();
  }
  // Every match now satisfies the order constraints: the holistic joins
  // prune violations inside their path merge.
  LOTUSX_DCHECK(std::all_of(
      result.matches.begin(), result.matches.end(), [&](const Match& m) {
        return SatisfiesOrderConstraints(indexed.document(), query, m);
      }))
      << AlgorithmName(plan->algorithm) << " returned an order violation";

  Timer sort_timer;
  if (binary) {
    std::sort(result.matches.begin(), result.matches.end());
  } else {
    // The holistic joins' path merge returns canonical order (DESIGN.md
    // "Ordered path merge").
    LOTUSX_DCHECK(
        std::is_sorted(result.matches.begin(), result.matches.end()))
        << AlgorithmName(plan->algorithm) << " returned unsorted matches";
  }
  const double sort_ms = sort_timer.ElapsedMillis();
  result.stats.elapsed_ms = total_timer.ElapsedMillis();

  // Fill per-operator actuals.
  for (OperatorNode& op : plan->ops) {
    switch (op.kind) {
      case OperatorKind::kStreamScan:
        if (options.analyze) {
          op.actual_rows_out =
              CandidatesFor(indexed, query, op.query_node).size();
          op.has_actuals = true;
        }
        break;
      case OperatorKind::kBinaryStructuralJoin:
      case OperatorKind::kPathStackJoin:
        op.actual_rows_in = result.stats.candidates_scanned;
        op.actual_rows_out = join_rows;
        op.actual_ms = join_ms;
        op.has_actuals = true;
        break;
      case OperatorKind::kTwigStackJoin:
      case OperatorKind::kTJFastJoin:
        op.actual_rows_in = result.stats.candidates_scanned;
        op.actual_rows_out = result.stats.intermediate_tuples;
        op.actual_ms = join_ms;
        op.has_actuals = true;
        break;
      case OperatorKind::kMergeExpand:
        // Merge runs inside the holistic join; its time is in the join op.
        op.actual_rows_in = result.stats.intermediate_tuples;
        op.actual_rows_out = join_rows;
        op.has_actuals = true;
        break;
      case OperatorKind::kOrderFilter:
        op.actual_rows_in = join_rows;
        op.actual_rows_out = result.matches.size();
        op.actual_ms = filter_ms;
        op.has_actuals = true;
        break;
      case OperatorKind::kOutputSort:
        op.actual_rows_in = result.matches.size();
        op.actual_rows_out = result.matches.size();
        op.actual_ms = sort_ms;
        op.has_actuals = true;
        break;
      case OperatorKind::kSchemaEmpty:  // only ever a plan's lone operator
        break;
    }
  }
  return result;
}

}  // namespace

StatusOr<QueryResult> ExecutePlan(const index::IndexedDocument& indexed,
                                  PhysicalPlan* plan,
                                  const ExecuteOptions& options) {
  if (plan == nullptr || plan->ops.empty()) {
    return Status::InvalidArgument("empty physical plan");
  }
  Timer total_timer;

  // One arena + posting-counter set for the whole query. Per-block
  // decode timing costs a Timer read per block, so it is only switched
  // on when the caller asked for actuals.
  EvalContext ctx;
  ctx.postings.time_decodes = options.analyze;

  QueryResult result;
  if (plan->IsSchemaEmpty()) {
    // No match exists (DESIGN.md "Schema-empty means empty"): every
    // counter stays 0, and the result names the join the plan resolved.
    result.stats.algorithm = AlgorithmName(plan->algorithm);
    result.stats.elapsed_ms = total_timer.ElapsedMillis();
    plan->ops.back().has_actuals = true;
  } else {
    LOTUSX_ASSIGN_OR_RETURN(
        result, ExecuteJoin(indexed, plan, options, total_timer, &ctx));
  }

  if (metrics::Enabled()) {
    for (const OperatorNode& op : plan->ops) {
      const OperatorMetrics& op_metrics = MetricsFor(op.kind);
      op_metrics.execs->Increment();
      op_metrics.rows->Increment(op.actual_rows_out);
      op_metrics.usec->Increment(static_cast<uint64_t>(op.actual_ms * 1e3));
    }
    const PostingMetrics& postings = PostingMetricsTable();
    postings.blocks_decoded->Increment(ctx.postings.blocks_decoded);
    postings.blocks_skipped->Increment(ctx.postings.blocks_skipped);
    postings.bytes_decoded->Increment(ctx.postings.bytes_decoded);
    if (ctx.postings.time_decodes) {
      DecodeUsecCounter()->Increment(
          static_cast<uint64_t>(ctx.postings.decode_ms * 1e3));
    }
  }

  result.stats.estimated_matches = plan->estimate.match_cardinality;
  plan->totals = result.stats;
  return result;
}

}  // namespace lotusx::twig::plan
