#ifndef LOTUSX_TWIG_EVALUATOR_H_
#define LOTUSX_TWIG_EVALUATOR_H_

#include <string_view>

#include "common/status_or.h"
#include "index/indexed_document.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Which twig-join algorithm the evaluator runs. The values are stable:
/// statement fingerprints hash them.
enum class Algorithm {
  kAuto,            // the planner's cheapest of PathStack/TwigStack/TJFast
  kStructuralJoin,  // binary stack-tree joins in query edge order (baseline)
  kPathStack,       // path queries only
  kTwigStack,       // holistic with containment labels
  kTJFast,          // holistic with extended Dewey (leaf streams only)
  kStructuralJoinReordered,  // binary joins, smallest candidate stream
                             // first (greedy selectivity edge order)
};

std::string_view AlgorithmName(Algorithm algorithm);

/// Evaluation options: which join runs. Order constraints are always
/// enforced: the holistic joins prune violating partial tuples inside
/// their merge phase, and the binary structural join's plan post-filters
/// complete matches.
struct EvalOptions {
  Algorithm algorithm = Algorithm::kAuto;
};

/// Front door of the twig engine — a thin shim over the cost-based query
/// planner (twig/plan/physical_plan.h): validates the query, passes the
/// options to the planner as hints, builds a priced physical-operator
/// plan, and executes it. All plans return exactly the same match set
/// (a property the plan-equivalence suite asserts).
StatusOr<QueryResult> Evaluate(const index::IndexedDocument& indexed,
                               const TwigQuery& query,
                               const EvalOptions& options = {});

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_EVALUATOR_H_
