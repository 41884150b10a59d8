#ifndef LOTUSX_TWIG_PLAN_PHYSICAL_PLAN_H_
#define LOTUSX_TWIG_PLAN_PHYSICAL_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status_or.h"
#include "index/indexed_document.h"
#include "twig/evaluator.h"
#include "twig/match.h"
#include "twig/selectivity.h"
#include "twig/twig_query.h"

namespace lotusx::twig::plan {

/// The physical operators a plan can contain. A plan is a small tree:
/// per-query-node stream scans (optionally wrapped by a schema prune) feed
/// one join operator, whose output flows through merge/expand (holistic
/// joins, which prune order violations there), an order filter (binary
/// structural joins of ordered queries only), and the canonical output
/// sort. A query with a node that has no DataGuide position plans as a
/// single schema-empty operator instead (DESIGN.md "Schema-empty means
/// empty").
enum class OperatorKind {
  kStreamScan,            // read one query node's candidate stream
  kSchemaPrune,           // restrict a stream to DataGuide-feasible paths
  kBinaryStructuralJoin,  // edge-at-a-time stack-tree join (baseline)
  kPathStackJoin,         // holistic path join
  kTwigStackJoin,         // holistic twig join, phase 1 (path solutions)
  kTJFastJoin,            // extended-Dewey leaf-stream join, phase 1
  kMergeExpand,           // phase 2: merge path solutions into matches
  kOrderFilter,           // order constraints on a binary join's matches
  kOutputSort,            // canonical document-order sort of the matches
  kSchemaEmpty,           // the whole plan: a node has no DataGuide position
};

std::string_view OperatorName(OperatorKind kind);

/// One node of a physical plan. Estimates are filled by the Planner;
/// actuals are filled by ExecutePlan (operators whose work is not
/// separately measurable — scans inside a monolithic join — get actual
/// row counts in analyze mode only, and no own timing).
struct OperatorNode {
  OperatorKind kind = OperatorKind::kOutputSort;
  /// Operator-specific annotation ("<author> leaf stream", "greedy
  /// selectivity edge order", "ordered merge; order pruning", ...).
  std::string detail;
  /// The query node a scan/prune operator serves, or the one a
  /// schema-empty operator names; kInvalidQueryNode for the operators
  /// above the leaves.
  QueryNodeId query_node = kInvalidQueryNode;
  /// Planner estimates: output rows and abstract cost units. A join's
  /// cost is the planner's one cost function, in TwigStack rows: the
  /// number kAuto compared (planner.cc).
  double estimated_rows = 0;
  double estimated_cost = 0;
  /// Execution actuals.
  bool has_actuals = false;
  uint64_t actual_rows_in = 0;
  uint64_t actual_rows_out = 0;
  double actual_ms = 0;
  /// Children as indices into PhysicalPlan::ops (children are always at
  /// lower indices; the root is the last entry).
  std::vector<int> children;
};

/// A priced physical plan for one twig query: the operator tree plus the
/// planner's inputs (resolved algorithm, schema pruning, cardinality
/// estimates) and, after ExecutePlan, the per-operator actuals.
struct PhysicalPlan {
  TwigQuery query;
  /// The resolved join algorithm (never kAuto).
  Algorithm algorithm = Algorithm::kTwigStack;
  /// True when the caller's hint named the algorithm; otherwise kAuto
  /// resolved to the cheapest priced join (ChoiceReason).
  bool algorithm_forced = false;
  /// Every stream is wrapped by a schema prune (the hint, baked in).
  bool schema_prune = false;
  /// The cost model's input.
  SelectivityEstimate estimate;
  /// Operators in child-before-parent order; ops.back() is the root.
  std::vector<OperatorNode> ops;
  /// The evaluation's aggregate counters, filled by ExecutePlan.
  EvalStats totals;

  /// Index of the first operator of `kind`, or -1.
  int FindOperator(OperatorKind kind) const;

  /// True when the plan is the lone schema-empty operator: execution
  /// opens no stream and returns no match.
  bool IsSchemaEmpty() const {
    return ops.size() == 1 && ops[0].kind == OperatorKind::kSchemaEmpty;
  }
};

/// Planner hints: the EvalOptions, read as preferences for the planner
/// rather than branches inside the algorithms (`PlannerHints{options}`).
/// A type of its own so Planner::Plan's signature names the planner's
/// input.
struct PlannerHints : EvalOptions {};

/// True for the binary structural joins, which materialize intermediate
/// tables edge by edge: their plans post-filter order constraints and
/// sort their output.
inline bool IsBinaryStructuralJoin(Algorithm algorithm) {
  return algorithm == Algorithm::kStructuralJoin ||
         algorithm == Algorithm::kStructuralJoinReordered;
}

/// Cost-based query planner: prices the candidate join strategies with
/// the DataGuide selectivity model (EstimateSelectivity), resolves kAuto
/// to the cheapest, and produces a priced operator tree for it. Pure
/// function of (index, query, hints) — the same inputs always yield the
/// same plan, which is what makes cached Search results planner-safe.
class Planner {
 public:
  explicit Planner(const index::IndexedDocument& indexed)
      : indexed_(indexed) {}

  /// Plans `query`. Fails only on invalid queries. A query with a node
  /// that has no DataGuide position plans as one schema-empty operator,
  /// with the algorithm and choice reason still resolved as for any
  /// plan; other infeasible queries plan a join that executes to an
  /// empty result. A kPathStack hint on a non-path query is planned as
  /// requested and fails at execution, schema-empty or not, matching the
  /// historical Evaluate() contract.
  StatusOr<PhysicalPlan> Plan(const TwigQuery& query,
                              const PlannerHints& hints = {}) const;

 private:
  const index::IndexedDocument& indexed_;
};

struct ExecuteOptions {
  /// Also compute per-stream actual row counts for scan/prune operators
  /// (costs one extra pass over the candidate streams; EXPLAIN uses it,
  /// the Evaluate() hot path does not).
  bool analyze = false;
};

/// Runs a physical plan, filling per-operator actuals and plan->stats.
/// The returned matches are bit-identical to what the pre-planner
/// Evaluate() produced for the same options (the plan-equivalence tests
/// pin this). A schema-empty plan opens no stream: its result has no
/// match, every counter at 0, and the resolved join's algorithm name.
StatusOr<QueryResult> ExecutePlan(const index::IndexedDocument& indexed,
                                  PhysicalPlan* plan,
                                  const ExecuteOptions& options = {});

/// Why the plan runs its join: "forced by caller hint", or every kAuto
/// candidate's cost, cheapest first ("cheapest join: tjfast cost=945.8
/// vs twigstack cost=2069.0"). The chosen join's cost is its operator's
/// estimated_cost. Rendered on demand, so planning builds no string.
std::string ChoiceReason(const PhysicalPlan& plan);

/// Text rendering of a plan: one line per operator (indented tree) with
/// estimated vs actual cardinalities, plus the planner's choice reason
/// and totals. `include_actuals` distinguishes EXPLAIN (estimates only)
/// from EXPLAIN-analyze output.
std::string DescribePlan(const PhysicalPlan& plan,
                         bool include_actuals = true);

/// Plan + execute + describe: the one-call EXPLAIN used by
/// Engine::Explain and the session protocol's EXPLAIN verb.
StatusOr<std::string> ExplainQuery(const index::IndexedDocument& indexed,
                                   const TwigQuery& query,
                                   const EvalOptions& options = {});

}  // namespace lotusx::twig::plan

#endif  // LOTUSX_TWIG_PLAN_PHYSICAL_PLAN_H_
