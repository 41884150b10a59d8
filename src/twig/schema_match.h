#ifndef LOTUSX_TWIG_SCHEMA_MATCH_H_
#define LOTUSX_TWIG_SCHEMA_MATCH_H_

#include <cstdint>
#include <map>
#include <vector>

#include "index/indexed_document.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Schema-level twig evaluation: matches `query` against the DataGuide
/// (the summary tree with one node per distinct label path) instead of
/// the document. Returns, for every query node, the exact set of paths
/// (ascending PathId) it can bind to in some embedding. Value predicates
/// require the path to carry text (or be an attribute path), except an
/// equality whose literal trims to empty, which a text-less element
/// satisfies; their actual text condition is not checked at this level.
/// The sets are complete: every document match binds each query node at
/// one of its paths, so an empty set proves the query has no match.
///
/// This is the primitive behind LotusX's position-awareness
/// (autocomplete), position-aware tag substitution (rewrite), and
/// cardinality estimation (selectivity): it runs on a structure that is
/// orders of magnitude smaller than the document.
std::vector<std::vector<index::PathId>> SchemaBindings(
    const index::IndexedDocument& indexed, const TwigQuery& query);

/// The tags that occur one `axis` step below `paths` (children for
/// kChild, any depth for kDescendant), each weighted by its occurrences
/// there summed over the paths. Nested paths (recursive tags) may count
/// an element twice: the sum is a ranking weight, not a cardinality.
/// Position-aware tag completion and the rewriter's tag substitution
/// both rank by it.
std::map<xml::TagId, uint64_t> TagsBelow(
    const index::DataGuide& guide, const std::vector<index::PathId>& paths,
    Axis axis);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_SCHEMA_MATCH_H_
