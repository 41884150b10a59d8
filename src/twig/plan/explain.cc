#include <cstdio>
#include <sstream>

#include "twig/plan/physical_plan.h"

namespace lotusx::twig::plan {

namespace {

std::string FmtRows(double rows) {
  char buffer[32];
  if (rows == static_cast<double>(static_cast<uint64_t>(rows)) &&
      rows < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(rows));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f", rows);
  }
  return buffer;
}

std::string FmtMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

void RenderOperator(const PhysicalPlan& plan, int index, int depth,
                    bool include_actuals, std::ostringstream* out) {
  const OperatorNode& op = plan.ops[static_cast<size_t>(index)];
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << "-> " << OperatorName(op.kind);
  if (!op.detail.empty()) *out << " [" << op.detail << "]";
  *out << "  (est rows=" << FmtRows(op.estimated_rows)
       << " cost=" << FmtRows(op.estimated_cost);
  if (include_actuals && op.has_actuals) {
    *out << " | actual rows=" << op.actual_rows_out;
    if (op.actual_rows_in > 0) *out << " in=" << op.actual_rows_in;
    if (op.actual_ms > 0) *out << " time=" << FmtMs(op.actual_ms) << "ms";
  }
  *out << ")\n";
  for (int child : op.children) {
    RenderOperator(plan, child, depth + 1, include_actuals, out);
  }
}

}  // namespace

std::string DescribePlan(const PhysicalPlan& plan, bool include_actuals) {
  std::ostringstream out;
  out << "query: " << plan.query.ToString() << "\n";
  out << "algorithm: " << AlgorithmName(plan.algorithm) << " ("
      << ChoiceReason(plan) << ")\n";
  out << "hints: schema-prune=" << (plan.schema_prune ? "on" : "off")
      << "\n";
  if (!plan.ops.empty()) {
    RenderOperator(plan, static_cast<int>(plan.ops.size()) - 1, 0,
                   include_actuals, &out);
  }
  out << "estimated matches: " << FmtRows(plan.estimate.match_cardinality);
  if (include_actuals) {
    out << "; actual matches: " << plan.totals.matches;
  }
  out << "\n";
  if (include_actuals) {
    out << "totals: scanned " << plan.totals.candidates_scanned
        << ", intermediate " << plan.totals.intermediate_tuples
        << ", elapsed " << FmtMs(plan.totals.elapsed_ms) << " ms\n";
    out << "postings: blocks decoded "
        << plan.totals.posting_blocks_decoded << ", skipped "
        << plan.totals.posting_blocks_skipped << ", bytes "
        << plan.totals.posting_bytes_decoded << "\n";
  }
  return out.str();
}

StatusOr<std::string> ExplainQuery(const index::IndexedDocument& indexed,
                                   const TwigQuery& query,
                                   const EvalOptions& options) {
  Planner planner(indexed);
  LOTUSX_ASSIGN_OR_RETURN(PhysicalPlan plan,
                          planner.Plan(query, PlannerHints{options}));
  ExecuteOptions exec;
  exec.analyze = true;
  LOTUSX_RETURN_IF_ERROR(ExecutePlan(indexed, &plan, exec).status());
  return DescribePlan(plan, /*include_actuals=*/true);
}

}  // namespace lotusx::twig::plan
