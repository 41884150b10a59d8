#ifndef LOTUSX_TWIG_PATH_MERGE_H_
#define LOTUSX_TWIG_PATH_MERGE_H_

#include <cstdint>
#include <vector>

#include "twig/match.h"
#include "twig/twig_query.h"

namespace lotusx::twig {

/// Root-to-leaf path solutions as a flat row-major table: row r binds
/// path position i to rows[r * stride + i]. Producers (TwigStack's stack
/// expansion, TJFast's label alignment) append rows in place instead of
/// allocating one binding vector per solution — on allocation-heavy
/// corpora the per-solution vectors dominated the holistic algorithms'
/// runtime, not the joins themselves.
struct SolutionTable {
  size_t stride = 0;
  std::vector<xml::NodeId> rows;

  size_t num_rows() const { return stride == 0 ? 0 : rows.size() / stride; }
  xml::NodeId* row(size_t r) { return rows.data() + r * stride; }
  const xml::NodeId* row(size_t r) const { return rows.data() + r * stride; }
  void AppendRow(const xml::NodeId* src) {
    rows.insert(rows.end(), src, src + stride);
  }
};

/// Joins per-root-to-leaf-path solution tables into complete twig matches.
/// `paths[i]` lists the query nodes of path i (root first) and
/// `solutions[i]` its binding rows (stride == paths[i].size(), columns
/// aligned with `paths[i]`), in any row order: a table is checked for
/// root-first order once and sorted only when it is out of order. Paths
/// are joined left to right with an ordered merge on the query nodes they
/// share with the already-joined prefix (at least the query root,
/// typically the common branch prefix): the accumulated tuples are walked
/// in order and each finds its run of path rows with a forward cursor
/// (binary search when the shared nodes are not the tuples' leading
/// columns). Matches come back deduplicated in canonical order, sorted
/// only when the query's node ids are not in the join's column order.
/// This is the merge phase of TwigStack, TJFast and (one path, no join)
/// PathStack. `join_tuples`, when non-null, accumulates the number of
/// tuples materialized across all join steps.
///
/// Order constraints are enforced here: after every join step, partial
/// tuples whose already-bound children of an ordered node violate
/// document order are dropped (the integrated order evaluation E4
/// prices against post-filtering). `document` supplies the subtree ends;
/// it may be null only when `query` has no order constraint.
std::vector<Match> MergePathSolutions(
    const TwigQuery& query, const std::vector<std::vector<QueryNodeId>>& paths,
    const std::vector<SolutionTable>& solutions, uint64_t* join_tuples,
    const xml::Document* document = nullptr);

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_PATH_MERGE_H_
