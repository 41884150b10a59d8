#ifndef LOTUSX_RANKING_RANKER_H_
#define LOTUSX_RANKING_RANKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "index/indexed_document.h"
#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::ranking {

/// One scored answer. `output` is the binding of the query's output node;
/// `score` is the combined relevance score (higher = better).
struct RankedResult {
  twig::Match match;
  xml::NodeId output = xml::kInvalidNodeId;
  double score = 0;
  double content_score = 0;
  double structure_score = 0;
  double specificity_score = 0;
};

/// Mixing weights of the three scoring signals. The defaults follow the
/// reconstruction in DESIGN.md; the E5 bench ablates them.
struct RankingOptions {
  double content_weight = 1.0;
  double structure_weight = 0.5;
  double specificity_weight = 0.25;
  /// 0 keeps every result.
  size_t top_k = 0;
};

/// LotusX's answer-ranking strategy (reconstructed from the abstract's
/// claim of "a new ranking strategy"; the exact formula is not in the
/// available text — see DESIGN.md). Combines:
///
///  1. Content relevance — TF-IDF of the keywords of every kContains
///     predicate inside the bound value node; exact-match (kEquals)
///     predicates contribute a fixed bonus.
///  2. Structural compactness — tight matches beat sprawling ones: the
///     score decays with the size of the subtree spanned by the match
///     root and with the slack of descendant edges (an actual
///     parent-child pair scores higher than a distant one).
///  3. Position specificity — matches bound to rare label paths (per the
///     DataGuide) are more informative than ones on ubiquitous paths.
class Ranker {
 public:
  explicit Ranker(const index::IndexedDocument& indexed)
      : indexed_(indexed) {}

  /// Scores one match.
  RankedResult Score(const twig::TwigQuery& query, const twig::Match& match,
                     const RankingOptions& options = {}) const;

  /// Scores all matches and returns the best top_k of them (all when 0),
  /// best first; ties break by document order of the output binding, then
  /// by Match. Only the returned results are built. Every entry equals
  /// Score() of its match.
  std::vector<RankedResult> Rank(const twig::TwigQuery& query,
                                 const std::vector<twig::Match>& matches,
                                 const RankingOptions& options = {}) const;

 private:
  const index::IndexedDocument& indexed_;
};

/// Bytes of per-match working memory the calling thread keeps for its
/// next Rank call. Rank frees it after any list of more than 65,536
/// matches, so it stays at most 3 MiB however large the lists ranked.
size_t RetainedScratchBytes();

}  // namespace lotusx::ranking

#endif  // LOTUSX_RANKING_RANKER_H_
