#ifndef LOTUSX_TESTS_TEST_UTIL_H_
#define LOTUSX_TESTS_TEST_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "index/indexed_document.h"
#include "twig/evaluator.h"
#include "twig/match.h"
#include "twig/twig_query.h"
#include "xml/dom.h"
#include "xml/dom_builder.h"

namespace lotusx::testing {

/// Parses `xml` or dies; convenience for test fixtures.
xml::Document MustParse(std::string_view xml);

/// Builds a fully indexed document from XML text or dies.
index::IndexedDocument MustIndex(std::string_view xml);

/// Reference twig matcher: recursive brute force over the DOM with no
/// index, no labels and no cleverness — the correctness oracle every real
/// algorithm is compared against. Returns matches sorted.
std::vector<twig::Match> BruteForceMatches(
    const index::IndexedDocument& indexed, const twig::TwigQuery& query,
    bool apply_order = true);

/// Every Algorithm value, kAuto first.
inline constexpr twig::Algorithm kAllAlgorithms[] = {
    twig::Algorithm::kAuto,      twig::Algorithm::kStructuralJoin,
    twig::Algorithm::kPathStack, twig::Algorithm::kTwigStack,
    twig::Algorithm::kTJFast,    twig::Algorithm::kStructuralJoinReordered};

/// AlgorithmName as a gtest parameter name: every character that is not
/// a letter or digit becomes '_' ("structural_join_reorder").
std::string ParamName(twig::Algorithm algorithm);

/// `query` with every node's `ordered` flag cleared: the same twig
/// without order constraints.
twig::TwigQuery WithoutOrder(const twig::TwigQuery& query);

}  // namespace lotusx::testing

#endif  // LOTUSX_TESTS_TEST_UTIL_H_
