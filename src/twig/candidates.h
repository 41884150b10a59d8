#ifndef LOTUSX_TWIG_CANDIDATES_H_
#define LOTUSX_TWIG_CANDIDATES_H_

#include <vector>

#include "index/indexed_document.h"
#include "twig/candidate_stream.h"
#include "twig/eval_context.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Opens the candidate stream for one query node: document-order NodeIds
/// whose tag matches (all elements for "*") and whose value satisfies the
/// node's predicate.
///
/// A plain tag node (no predicate, no root anchoring) streams
/// lazily off the block-compressed tag stream — joins that seek past
/// regions never pay their decode. Anything needing filtering is
/// materialized into `ctx`'s arena first: equality predicates intersect
/// the keyword postings of the predicate's tokens by k-way leapfrog join
/// (galloping SeekGE over block cursors) and verify the full content
/// string; containment predicates require every token's posting list to
/// contain the node. A predicate whose text has no indexable token
/// matches only nodes whose content equals it verbatim (kEquals) or
/// nothing (kContains).
///
/// The stream borrows `ctx` (arena scratch, posting counters) and
/// `indexed`; both must outlive it.
CandidateStream OpenCandidates(const index::IndexedDocument& indexed,
                               const TwigQuery& query, QueryNodeId node,
                               EvalContext* ctx);

/// Eager variant: materializes the full candidate list. Tests, EXPLAIN
/// ANALYZE actuals, and other cold paths.
std::vector<xml::NodeId> CandidatesFor(const index::IndexedDocument& indexed,
                                       const TwigQuery& query,
                                       QueryNodeId node);

/// True when document node `node` satisfies query node `q`'s tag and value
/// predicate (used by rewriting and by tests as the oracle definition).
bool NodeSatisfies(const index::IndexedDocument& indexed,
                   const TwigQuery& query, QueryNodeId q, xml::NodeId node);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_CANDIDATES_H_
