#ifndef LOTUSX_TWIG_EVALUATOR_H_
#define LOTUSX_TWIG_EVALUATOR_H_

#include <string_view>

#include "common/status_or.h"
#include "index/indexed_document.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Which twig-join algorithm the evaluator runs.
enum class Algorithm {
  kAuto,            // the planner's cheapest of PathStack/TwigStack/TJFast
  kStructuralJoin,  // binary stack-tree joins (baseline)
  kPathStack,       // path queries only
  kTwigStack,       // holistic with containment labels
  kTJFast,          // holistic with extended Dewey (leaf streams only)
};

std::string_view AlgorithmName(Algorithm algorithm);

/// Evaluation options. Every field maps 1:1 onto a planner hint
/// (plan::HintsFrom) — the planner bakes them into the physical plan
/// instead of branching inside the algorithms.
struct EvalOptions {
  Algorithm algorithm = Algorithm::kAuto;
  /// Apply order constraints during evaluation. When false, ordered
  /// queries are answered as if unordered (used by the E4 ablation to
  /// price the naive post-filter externally).
  bool apply_order = true;
  /// Enforce order constraints inside the holistic algorithms' merge
  /// phase (pruning partial tuples early) instead of post-filtering
  /// complete matches. Same answers either way; E4 measures the
  /// difference in work.
  bool integrate_order = true;
  /// Greedy selectivity ordering of the binary structural join's edges
  /// (smallest candidate stream first); only affects kStructuralJoin.
  /// E3 prices it against the naive query order.
  bool reorder_binary_joins = false;
  /// Prune every input stream to the positions the query can actually
  /// bind (SchemaBindings over the DataGuide) before the join — the
  /// structural-summary optimization the E10 ablation prices. Never
  /// changes answers (schema matching is complete); off by default so
  /// algorithm comparisons stay on the classic streams.
  bool schema_prune_streams = false;
};

/// Front door of the twig engine — a thin shim over the cost-based query
/// planner (twig/plan/physical_plan.h): validates the query, maps the
/// options to planner hints, builds a priced physical-operator plan, and
/// executes it. All plans return exactly the same match set (a property
/// the plan-equivalence suite asserts).
StatusOr<QueryResult> Evaluate(const index::IndexedDocument& indexed,
                               const TwigQuery& query,
                               const EvalOptions& options = {});

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_EVALUATOR_H_
