#ifndef LOTUSX_TWIG_TJFAST_H_
#define LOTUSX_TWIG_TJFAST_H_

#include "index/indexed_document.h"
#include "twig/eval_context.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Extended-Dewey twig join in the style of TJFast (Lu et al., VLDB 2005)
/// — the engine family LotusX builds on. Only the streams of the query's
/// *leaf* nodes are read; each leaf element's extended Dewey label is
/// decoded into its full root-to-node tag path via the tag transducer, the
/// query's root-to-leaf path pattern is aligned against it (all
/// alignments, respecting '/' vs '//' and '*'), and every alignment
/// directly yields bindings for all ancestor query nodes on that path.
/// Per-path solution lists are then merge-joined (path_merge.h) exactly as
/// in TwigStack's second phase.
///
/// Paths are read smallest leaf stream first. Every later leaf stream
/// seeks only into the subtrees of the bindings that an already-read
/// path's solutions give the deepest query node the two paths share, so
/// leaf elements that cannot join are never decoded (the paper's
/// cross-leaf skipping, as a semi-join over the path tables; DESIGN.md
/// proves the matches unchanged).
///
/// Internal-node value predicates, which a leaf label cannot attest, are
/// verified against the materialized ancestor before a solution is kept.
///
/// Order constraints are enforced in the merge phase, which prunes
/// partial tuples that violate them.
QueryResult TjFastEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx = nullptr);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_TJFAST_H_
