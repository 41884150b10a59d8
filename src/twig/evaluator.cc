#include "twig/evaluator.h"

#include <utility>

#include "common/timer.h"
#include "common/trace.h"
#include "twig/plan/physical_plan.h"

namespace lotusx::twig {

std::string_view AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAuto:
      return "auto";
    case Algorithm::kStructuralJoin:
      return "structural-join";
    case Algorithm::kPathStack:
      return "pathstack";
    case Algorithm::kTwigStack:
      return "twigstack";
    case Algorithm::kTJFast:
      return "tjfast";
    case Algorithm::kStructuralJoinReordered:
      return "structural-join+reorder";
  }
  return "?";
}

StatusOr<QueryResult> Evaluate(const index::IndexedDocument& indexed,
                               const TwigQuery& query,
                               const EvalOptions& options) {
  LOTUSX_RETURN_IF_ERROR(query.Validate());
  Timer timer;
  plan::Planner planner(indexed);
  StatusOr<plan::PhysicalPlan> physical = [&] {
    trace::StageSpan span(trace::Stage::kPlan);
    return planner.Plan(query, plan::PlannerHints{options});
  }();
  LOTUSX_RETURN_IF_ERROR(physical.status());
  StatusOr<QueryResult> executed = [&] {
    trace::StageSpan span(trace::Stage::kExecute);
    return plan::ExecutePlan(indexed, &*physical);
  }();
  LOTUSX_ASSIGN_OR_RETURN(QueryResult result, std::move(executed));
  // Wall time includes planning, matching the historical contract.
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace lotusx::twig
