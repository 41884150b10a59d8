#ifndef LOTUSX_TWIG_STRUCTURAL_JOIN_H_
#define LOTUSX_TWIG_STRUCTURAL_JOIN_H_

#include "index/indexed_document.h"
#include "twig/eval_context.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Pre-holistic baseline: decomposes the twig into its tree edges and
/// evaluates them one at a time with the stack-tree structural join
/// (Al-Khalifa et al., ICDE 2002), materializing the full intermediate
/// binding table after every edge. Correct for all twigs, but exhibits the
/// classic intermediate-result blowup on branchy queries that holistic
/// algorithms (TwigStack, TJFast) were designed to avoid — which is
/// exactly what experiment E3 demonstrates.
///
/// Order constraints are NOT applied here; the plan post-filters the
/// complete matches (order-filter operator). `schema_bindings`, when non-null (one sorted PathId list per query
/// node, from SchemaBindings), prunes each input stream to feasible
/// positions before joining.
///
/// With `reorder_joins`, edges are processed greedily by candidate-stream
/// size (parent-first constraint respected) instead of query order — the
/// classic join-ordering lever: putting a selective branch early shrinks
/// every later intermediate table. Same answers either way; the stats
/// name the algorithm kStructuralJoin or kStructuralJoinReordered.
/// `ctx` supplies the per-query arena and posting counters; a local one
/// is created when null (direct calls in tests).
QueryResult StructuralJoinEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    const std::vector<std::vector<index::PathId>>* schema_bindings = nullptr,
    bool reorder_joins = false, EvalContext* ctx = nullptr);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_STRUCTURAL_JOIN_H_
