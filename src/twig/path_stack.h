#ifndef LOTUSX_TWIG_PATH_STACK_H_
#define LOTUSX_TWIG_PATH_STACK_H_

#include "index/indexed_document.h"
#include "twig/eval_context.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// PathStack (Bruno et al., SIGMOD 2002): holistic join for *path*
/// queries. Streams of all query nodes are merged in document order; each
/// element is pushed onto its node's stack with a pointer into the parent
/// stack, and solutions are expanded when leaf elements arrive. Unlike
/// TwigStack it performs no head-element skipping, so it scans every
/// candidate — the natural baseline between the binary join and TwigStack
/// in experiment E3.
///
/// Requires query.IsPath(); returns InvalidArgument otherwise.
StatusOr<QueryResult> PathStackEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx = nullptr);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_PATH_STACK_H_
