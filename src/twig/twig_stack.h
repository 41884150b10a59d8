#ifndef LOTUSX_TWIG_TWIG_STACK_H_
#define LOTUSX_TWIG_TWIG_STACK_H_

#include "index/indexed_document.h"
#include "twig/eval_context.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Holistic twig join (TwigStack, Bruno et al., SIGMOD 2002) over
/// containment-labeled tag streams. Phase 1 produces root-to-leaf path
/// solutions using one stack per query node and the getNext head-element
/// selection that avoids materializing useless intermediate paths for
/// ancestor-descendant edges; phase 2 merge-joins the path solutions into
/// twig matches (path_merge.h). For queries with parent-child edges the
/// algorithm remains correct but may emit non-merging path solutions —
/// the known suboptimality that motivated TJFast.
///
/// Order constraints are enforced in the merge phase, which prunes
/// partial tuples that violate them.
QueryResult TwigStackEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx = nullptr);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_TWIG_STACK_H_
