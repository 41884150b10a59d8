#include "twig/tjfast.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "twig/candidates.h"
#include "twig/path_merge.h"

namespace lotusx::twig {

namespace {

/// Alignment machinery: match the query path pattern (root-to-leaf tags
/// with axes) against a decoded tag path. Pattern position i corresponds
/// to query node path[i]; alignment[i] is the depth (index into the tag
/// path) assigned to it. The last pattern position is pinned to the last
/// tag-path position (the leaf element itself).
class PathAligner {
 public:
  PathAligner(const xml::Document& document, const TwigQuery& query,
              const std::vector<QueryNodeId>& path)
      : document_(document), query_(query), path_(path) {
    // Pre-resolve pattern tags: kInvalidTagId means the tag does not occur
    // in the document at all (no alignment possible), -2 means wildcard.
    for (QueryNodeId q : path_) {
      const std::string& tag = query_.node(q).tag;
      pattern_tags_.push_back(tag == "*" ? kWildcard
                                         : document_.FindTag(tag));
    }
  }

  static constexpr xml::TagId kWildcard = -2;

  /// Aligns the pattern onto `tag_path` (tags of the decoded
  /// root-to-element path); returns the number of alignments. Row k
  /// (path_.size() entries, valid until the next Align call) is at
  /// alignment(k). Rows and scratch live in member buffers so the
  /// per-element alignment allocates nothing once warm.
  size_t Align(const std::vector<xml::TagId>& tag_path) {
    rows_.clear();
    if (tag_path.empty()) return 0;
    int32_t last = static_cast<int32_t>(tag_path.size()) - 1;
    if (!TagMatches(pattern_tags_.back(),
                    tag_path[static_cast<size_t>(last)])) {
      return 0;
    }
    current_.assign(path_.size(), -1);
    current_[path_.size() - 1] = last;
    Extend(tag_path, static_cast<int32_t>(path_.size()) - 1);
    return rows_.size() / path_.size();
  }

  const int32_t* alignment(size_t k) const {
    return rows_.data() + k * path_.size();
  }

 private:
  static bool TagMatches(xml::TagId pattern, xml::TagId actual) {
    return pattern == kWildcard || pattern == actual;
  }

  /// Fills positions pattern_index-1 .. 0 given that pattern_index is
  /// already placed at current_[pattern_index].
  void Extend(const std::vector<xml::TagId>& tag_path,
              int32_t pattern_index) {
    if (pattern_index == 0) {
      // The query root placement must respect the root axis: '/' anchors
      // it at the document root.
      int32_t pos = current_[0];
      if (query_.root_axis() == Axis::kChild && pos != 0) return;
      rows_.insert(rows_.end(), current_.begin(), current_.end());
      return;
    }
    int32_t child_pos = current_[static_cast<size_t>(pattern_index)];
    Axis axis =
        query_.node(path_[static_cast<size_t>(pattern_index)]).incoming_axis;
    xml::TagId want = pattern_tags_[static_cast<size_t>(pattern_index - 1)];
    if (axis == Axis::kChild) {
      int32_t pos = child_pos - 1;
      if (pos < 0 ||
          !TagMatches(want, tag_path[static_cast<size_t>(pos)])) {
        return;
      }
      current_[static_cast<size_t>(pattern_index - 1)] = pos;
      Extend(tag_path, pattern_index - 1);
    } else {
      for (int32_t pos = child_pos - 1;
           pos >= pattern_index - 1;  // need room for the remaining prefix
           --pos) {
        if (!TagMatches(want, tag_path[static_cast<size_t>(pos)])) continue;
        current_[static_cast<size_t>(pattern_index - 1)] = pos;
        Extend(tag_path, pattern_index - 1);
      }
    }
  }

  const xml::Document& document_;
  const TwigQuery& query_;
  const std::vector<QueryNodeId>& path_;
  std::vector<xml::TagId> pattern_tags_;
  std::vector<int32_t> rows_;      // alignments, row-major, stride path_
  std::vector<int32_t> current_;   // partial alignment being extended
};

}  // namespace

QueryResult TjFastEvaluate(
    const index::IndexedDocument& indexed, const TwigQuery& query,
    EvalContext* ctx) {
  EvalContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  Timer timer;
  QueryResult result;
  result.stats.algorithm = "tjfast";
  const xml::Document& document = indexed.document();
  const labeling::TagTransducer& transducer = indexed.transducer();
  const labeling::ExtendedDeweyStore& labels = indexed.extended_dewey();
  labeling::XTagId root_tag =
      document.empty() ? -1 : document.node(document.root()).tag;

  std::vector<std::vector<QueryNodeId>> paths = query.RootToLeafPaths();
  std::vector<SolutionTable> solutions(paths.size());
  std::vector<CandidateStream> streams;
  streams.reserve(paths.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    solutions[p].stride = paths[p].size();
    QueryNodeId leaf = paths[p].back();
    streams.push_back(OpenCandidates(indexed, query, leaf, ctx));
  }
  // Smallest leaf stream first (ties in query order): its solutions bound
  // where the later, larger leaf streams can still join.
  std::vector<size_t> order(paths.size());
  for (size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::pair(streams[a].count(), a) < std::pair(streams[b].count(), b);
  });
  std::vector<labeling::XTagId> tag_path;
  std::vector<xml::NodeId> anchors;  // S bindings, ascending

  for (size_t n = 0; n < order.size(); ++n) {
    const size_t p = order[n];
    const std::vector<QueryNodeId>& path = paths[p];
    CandidateStream& stream = streams[p];
    PathAligner aligner(document, query, path);

    auto visit = [&](xml::NodeId element) {
      // Decode the element's root-to-node tag path from its extended
      // Dewey label alone (this is the TJFast trick: no ancestor streams).
      labeling::ExtendedDeweyStore::DecodeTagPath(
          transducer, root_tag, labels.label(element), &tag_path);
      size_t num_alignments = aligner.Align(tag_path);
      for (size_t k = 0; k < num_alignments; ++k) {
        const int32_t* alignment = aligner.alignment(k);
        // Materialize the ancestor at each aligned depth by walking the
        // parent chain once from the element, writing the binding row
        // straight into the solution table (rolled back below if a
        // predicate fails).
        size_t at = solutions[p].rows.size();
        solutions[p].rows.resize(at + path.size(), xml::kInvalidNodeId);
        xml::NodeId* binding = solutions[p].rows.data() + at;
        binding[path.size() - 1] = element;
        {
          xml::NodeId walk = element;
          int32_t walk_depth = document.node(element).depth;
          size_t i = path.size() - 1;
          while (i > 0) {
            --i;
            int32_t want_depth = alignment[i];
            while (walk_depth > want_depth) {
              walk = document.node(walk).parent;
              --walk_depth;
            }
            binding[i] = walk;
          }
        }
        // Verify internal value predicates (not attested by the label).
        bool ok = true;
        for (size_t i = 0; ok && i + 1 < path.size(); ++i) {
          if (query.node(path[i]).predicate.active() &&
              !NodeSatisfies(indexed, query, path[i], binding[i])) {
            ok = false;
          }
        }
        if (!ok) solutions[p].rows.resize(at);
      }
    };

    if (n == 0) {
      for (; !stream.AtEnd(); stream.Next()) visit(stream.Key());
    } else {
      // Cross-leaf skip. S, the deepest query node this path shares with
      // an already-read path, binds in every match to an element that
      // path's table holds (the table has every solution of its path), and
      // this path's leaf lies strictly inside S's binding. So only leaf
      // elements inside the subtree of some S value in that table can
      // join; the stream seeks from one such subtree to the next. A
      // repeated or nested anchor finds the stream already past its
      // subtree and reads nothing.
      size_t source = order[0];
      size_t shared = 0;
      for (size_t m = 0; m < n; ++m) {
        const std::vector<QueryNodeId>& other = paths[order[m]];
        size_t common = 0;
        while (common < path.size() && common < other.size() &&
               path[common] == other[common]) {
          ++common;
        }
        if (common > shared) {
          shared = common;
          source = order[m];
        }
      }
      // Every path starts at the query root, so shared >= 1.
      const SolutionTable& table = solutions[source];
      anchors.clear();
      anchors.reserve(table.num_rows());
      for (size_t r = 0; r < table.num_rows(); ++r) {
        anchors.push_back(table.row(r)[shared - 1]);
      }
      if (!std::is_sorted(anchors.begin(), anchors.end())) {
        std::sort(anchors.begin(), anchors.end());
      }
      for (xml::NodeId anchor : anchors) {
        if (!stream.SeekGE(anchor + 1)) break;
        const xml::NodeId last = document.node(anchor).subtree_end;
        for (; !stream.AtEnd() && stream.Key() <= last; stream.Next()) {
          visit(stream.Key());
        }
      }
    }
    result.stats.intermediate_tuples += solutions[p].num_rows();
    // Every path must join into a match: once one has no solutions the
    // answer is empty, and the remaining leaf streams go unread.
    if (solutions[p].num_rows() == 0) {
      result.stats.candidates_scanned = ElementsRead(streams);
      FillPostingStats(*ctx, &result.stats);
      result.stats.elapsed_ms = timer.ElapsedMillis();
      return result;
    }
  }

  result.matches =
      MergePathSolutions(query, paths, solutions,
                         &result.stats.intermediate_tuples, &document);
  result.stats.matches = result.matches.size();
  result.stats.candidates_scanned = ElementsRead(streams);
  FillPostingStats(*ctx, &result.stats);
  result.stats.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace lotusx::twig
