#include "twig/path_merge.h"

#include <algorithm>
#include <numeric>

#include "common/invariant.h"
#include "common/logging.h"

namespace lotusx::twig {

namespace {

/// Partial-match tuples in the path tables' flat row-major layout, at
/// stride = query size (unbound nodes kInvalidNodeId): expansion appends
/// rows with plain copies instead of allocating a bindings vector per
/// intermediate Match.
using TupleTable = SolutionTable;

/// Drops tuples violating an order constraint among nodes bound so far
/// (in-place compaction).
void PruneByPartialOrder(const TwigQuery& query,
                         const xml::Document& document, TupleTable* table) {
  auto violates = [&](const xml::NodeId* bindings) {
    for (QueryNodeId q = 0; q < query.size(); ++q) {
      const QueryNode& node = query.node(q);
      if (!node.ordered || node.children.size() < 2) continue;
      for (size_t i = 0; i + 1 < node.children.size(); ++i) {
        xml::NodeId left = bindings[static_cast<size_t>(node.children[i])];
        xml::NodeId right =
            bindings[static_cast<size_t>(node.children[i + 1])];
        if (left == xml::kInvalidNodeId || right == xml::kInvalidNodeId) {
          continue;  // not both bound yet
        }
        if (document.node(left).subtree_end >= right) return true;
      }
    }
    return false;
  };
  size_t write = 0;
  size_t rows = table->num_rows();
  for (size_t r = 0; r < rows; ++r) {
    if (violates(table->row(r))) continue;
    if (write != r) {
      std::copy(table->row(r), table->row(r) + table->stride,
                table->row(write));
    }
    ++write;
  }
  table->rows.resize(write * table->stride);
}

/// True when `table`'s rows are in root-first (lexicographic) order. Each
/// row pair is compared on every column, with no early exit: which column
/// first differs varies from row to row, and a branch on it mispredicts.
bool RowsSorted(const SolutionTable& table) {
  for (size_t r = 1; r < table.num_rows(); ++r) {
    const xml::NodeId* prev = table.row(r - 1);
    const xml::NodeId* cur = table.row(r);
    int order = 0;  // sign of prev <=> cur on the first differing column
    for (size_t i = table.stride; i-- > 0;) {
      int c = (prev[i] > cur[i]) - (prev[i] < cur[i]);
      order = c != 0 ? c : order;
    }
    if (order > 0) return false;
  }
  return true;
}

/// First index in [lo, hi) at which `pred` is false; `pred` must hold on
/// a prefix of the range and fail on the rest.
template <typename Pred>
size_t PartitionPoint(size_t lo, size_t hi, Pred pred) {
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// True when `columns` lists query nodes 0, 1, ... in order: rows sorted
/// on such columns are in canonical Match order.
bool InIdOrder(const std::vector<QueryNodeId>& columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] != static_cast<QueryNodeId>(i)) return false;
  }
  return true;
}

/// `table`'s rows in lexicographic order: permutation + gather, not
/// per-row swaps.
std::vector<xml::NodeId> SortedRowData(const SolutionTable& table) {
  std::vector<uint32_t> order(table.num_rows());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(table.row(a),
                                        table.row(a) + table.stride,
                                        table.row(b),
                                        table.row(b) + table.stride);
  });
  std::vector<xml::NodeId> sorted;
  sorted.reserve(table.rows.size());
  for (uint32_t r : order) {
    sorted.insert(sorted.end(), table.row(r), table.row(r) + table.stride);
  }
  return sorted;
}

/// Complete tuples (stride = query size), sorted, as deduplicated
/// matches.
std::vector<Match> Materialize(const TupleTable& table) {
  std::vector<Match> matches;
  matches.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const xml::NodeId* r = table.row(i);
    if (i > 0 && std::equal(r, r + table.stride, table.row(i - 1))) continue;
    Match match;
    match.bindings.assign(r, r + table.stride);
    matches.push_back(std::move(match));
  }
  return matches;
}

}  // namespace

std::vector<Match> MergePathSolutions(
    const TwigQuery& query,
    const std::vector<std::vector<QueryNodeId>>& paths,
    const std::vector<SolutionTable>& solutions, uint64_t* join_tuples,
    const xml::Document* document) {
  CHECK_EQ(paths.size(), solutions.size());
  const bool prune = query.HasOrderConstraints();
  CHECK(!prune || document != nullptr)
      << "order constraints need the document";
  if (paths.empty()) return {};

  // Path tables must be in root-first row order. Producers almost always
  // emit them that way, so each table is checked once and only an
  // out-of-order one is sorted (into a copy; the inputs are const).
  std::vector<SolutionTable> resorted;  // reserved once: stable references
  auto ordered = [&](size_t p) -> const SolutionTable& {
    const SolutionTable& input = solutions[p];
    CHECK_EQ(input.stride, paths[p].size());
    if (RowsSorted(input)) return input;
    if (resorted.empty()) resorted.reserve(paths.size());
    resorted.push_back(SolutionTable{input.stride, SortedRowData(input)});
    return resorted.back();
  };

  // One path over the whole query in id order (PathStack, or TwigStack
  // on a path query): no join, the path rows are the matches.
  if (paths.size() == 1 &&
      paths[0].size() == static_cast<size_t>(query.size()) &&
      InIdOrder(paths[0])) {
    const SolutionTable& only = ordered(0);
    if (join_tuples != nullptr) *join_tuples += only.num_rows();
    return Materialize(only);
  }

  std::vector<bool> bound(static_cast<size_t>(query.size()), false);
  // Query nodes in the order they were bound: the accumulated rows are
  // sorted lexicographically on these columns.
  std::vector<QueryNodeId> join_columns;
  TupleTable table;
  table.stride = static_cast<size_t>(query.size());

  // Seed with the first path.
  const SolutionTable& first = ordered(0);
  table.rows.reserve(first.num_rows() * table.stride);
  for (size_t s = 0; s < first.num_rows(); ++s) {
    const xml::NodeId* solution = first.row(s);
    size_t at = table.rows.size();
    table.rows.resize(at + table.stride, xml::kInvalidNodeId);
    for (size_t i = 0; i < paths[0].size(); ++i) {
      table.rows[at + static_cast<size_t>(paths[0][i])] = solution[i];
    }
  }
  for (QueryNodeId q : paths[0]) {
    bound[static_cast<size_t>(q)] = true;
    join_columns.push_back(q);
  }
  if (prune) PruneByPartialOrder(query, *document, &table);
  if (join_tuples != nullptr) *join_tuples += table.num_rows();

  for (size_t p = 1; p < paths.size() && table.num_rows() != 0; ++p) {
    const std::vector<QueryNodeId>& path = paths[p];
    const SolutionTable& solution = ordered(p);
    // The nodes an earlier path already bound are a prefix of this path
    // (at least the query root): the join key.
    size_t shared = 0;
    while (shared < path.size() && bound[static_cast<size_t>(path[shared])]) {
      ++shared;
    }
    LOTUSX_DCHECK(std::none_of(
        path.begin() + static_cast<std::ptrdiff_t>(shared), path.end(),
        [&](QueryNodeId q) { return bound[static_cast<size_t>(q)]; }))
        << "bound query nodes of path " << p << " are not a prefix";
    // Three-way comparison of path row `sol`'s key with tuple row `tuple`.
    auto compare_key = [&](const xml::NodeId* sol,
                           const xml::NodeId* tuple) {
      for (size_t i = 0; i < shared; ++i) {
        xml::NodeId t = tuple[static_cast<size_t>(path[i])];
        if (sol[i] != t) return sol[i] < t ? -1 : 1;
      }
      return 0;
    };
    // When the key is the tuples' leading join columns, walking the
    // tuples in row order visits keys in ascending order, so one forward
    // cursor over the path table finds every run. Otherwise each run is
    // binary-searched (the path table is sorted on its key prefix too).
    const bool forward = std::equal(
        path.begin(), path.begin() + static_cast<std::ptrdiff_t>(shared),
        join_columns.begin());
    const size_t num_solutions = solution.num_rows();
    size_t lo = 0;  // run of path rows sharing the current tuple's key
    size_t hi = 0;
    TupleTable next;
    next.stride = table.stride;
    const size_t rows = table.num_rows();
    for (size_t r = 0; r < rows;) {
      const xml::NodeId* tuple = table.row(r);
      // Identical tuples are expanded together, run row by run row, so
      // the output stays sorted even when a table carries duplicates.
      size_t group_end = r + 1;
      while (group_end < rows &&
             std::equal(tuple, tuple + table.stride, table.row(group_end))) {
        ++group_end;
      }
      if (forward) {
        if (lo == hi || compare_key(solution.row(lo), tuple) != 0) {
          lo = hi;
          while (lo < num_solutions &&
                 compare_key(solution.row(lo), tuple) < 0) {
            ++lo;
          }
          hi = lo;
          while (hi < num_solutions &&
                 compare_key(solution.row(hi), tuple) == 0) {
            ++hi;
          }
        }
      } else {
        auto before = [&](size_t s) {
          return compare_key(solution.row(s), tuple) < 0;
        };
        auto within = [&](size_t s) {
          return compare_key(solution.row(s), tuple) <= 0;
        };
        lo = PartitionPoint(0, num_solutions, before);
        hi = PartitionPoint(lo, num_solutions, within);
      }
      for (size_t s = lo; s < hi; ++s) {
        const xml::NodeId* sol = solution.row(s);
        for (size_t g = r; g < group_end; ++g) {
          size_t at = next.rows.size();
          next.rows.insert(next.rows.end(), tuple, tuple + table.stride);
          for (size_t i = shared; i < path.size(); ++i) {
            next.rows[at + static_cast<size_t>(path[i])] = sol[i];
          }
        }
      }
      r = group_end;
    }
    table = std::move(next);
    for (size_t i = shared; i < path.size(); ++i) {
      bound[static_cast<size_t>(path[i])] = true;
      join_columns.push_back(path[i]);
    }
    if (prune) PruneByPartialOrder(query, *document, &table);
    if (join_tuples != nullptr) *join_tuples += table.num_rows();
  }

  // The rows are sorted on the join columns. When those are the query
  // nodes in id order (preorder-numbered queries), that is canonical
  // Match order already; otherwise sort once.
  if (!InIdOrder(join_columns)) table.rows = SortedRowData(table);
  return Materialize(table);
}

}  // namespace lotusx::twig
