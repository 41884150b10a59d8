#ifndef LOTUSX_TWIG_MATCH_H_
#define LOTUSX_TWIG_MATCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "xml/dom.h"

namespace lotusx::twig {

/// One complete embedding of a twig query into the document: bindings[q]
/// is the document node matched to query node q.
struct Match {
  std::vector<xml::NodeId> bindings;

  friend bool operator==(const Match&, const Match&) = default;
  friend auto operator<=>(const Match& a, const Match& b) {
    return a.bindings <=> b.bindings;
  }
};

/// Execution counters reported by every twig algorithm, used by the E3/E4
/// benches to explain *why* one algorithm wins (intermediate-result
/// blowup is the classic structural-join failure mode).
struct EvalStats {
  std::string algorithm;
  /// Elements read from input streams: those a join positioned a stream
  /// on, not the streams' full lengths (seeks skip the rest).
  /// A schema-empty plan opens no stream and reads 0.
  uint64_t candidates_scanned = 0;
  /// Intermediate tuples materialized (partial matches for the binary
  /// join, path solutions for the holistic algorithms).
  uint64_t intermediate_tuples = 0;
  /// Full twig matches produced (before output projection).
  uint64_t matches = 0;
  /// Posting-block access on the compressed streams: blocks actually
  /// decoded vs. skipped whole via the skip index, and compressed bytes
  /// decoded. Skips are what cursor-based joins buy over raw scans.
  uint64_t posting_blocks_decoded = 0;
  uint64_t posting_blocks_skipped = 0;
  uint64_t posting_bytes_decoded = 0;
  /// Planner's match-cardinality estimate for the executed plan, carried
  /// alongside the actuals so the statement store can aggregate
  /// estimated-vs-actual row error per query shape. Negative when the
  /// execution had no planning step (cache hits, errors).
  double estimated_matches = -1;
  double elapsed_ms = 0;
};

/// Result of evaluating a twig query: all embeddings plus statistics.
struct QueryResult {
  std::vector<Match> matches;
  EvalStats stats;

  /// Distinct bindings of the query's output node, in document order.
  std::vector<xml::NodeId> OutputNodes(int output_query_node) const {
    std::vector<xml::NodeId> out;
    out.reserve(matches.size());
    for (const Match& match : matches) {
      out.push_back(match.bindings[static_cast<size_t>(output_query_node)]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
};

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_MATCH_H_
