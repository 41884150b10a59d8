#include "ranking/ranker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "common/string_util.h"
#include "index/posting_blocks.h"

namespace lotusx::ranking {

namespace {

/// The three signals of one match, before weighting.
struct Signals {
  double content = 0;
  double structure = 0;
  double specificity = 0;
};

/// A match under selection: its combined score, output binding, and
/// index in the match list. Selection moves these 16-byte entries, never
/// the matches.
struct Entry {
  double score;
  xml::NodeId output;
  uint32_t index;
};

// Key and payload decode buffers of one block-posting cursor.
constexpr size_t kCursorScratchBytes =
    2 * index::PostingBlocks::kBlockEntries * sizeof(uint32_t);

// Match lists up to this size leave their per-match arrays (48 bytes a
// match, 3 MiB in all) to the next call; larger ones free them.
constexpr size_t kRetainedMatches = size_t{1} << 16;

/// Working memory of one Rank or Score call. Each thread keeps one set
/// and reuses it call after call, so a warm ranker allocates no per-match
/// memory for lists of up to kRetainedMatches matches.
struct Scratch {
  std::vector<Signals> signals;  // per match
  std::vector<Entry> entries;    // per match
  std::vector<uint64_t> bound;   // (bound node << 32) | match, sorted
  Arena arena{kCursorScratchBytes};

  /// Frees the per-match arrays if a large list grew them past the cap.
  void Trim() {
    if (signals.capacity() > kRetainedMatches) {
      std::vector<Signals>().swap(signals);
    }
    if (entries.capacity() > kRetainedMatches) {
      std::vector<Entry>().swap(entries);
    }
    if (bound.capacity() > kRetainedMatches) {
      std::vector<uint64_t>().swap(bound);
    }
  }
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// The scoring formula, resolved per query once per Rank or Score call:
/// every kContains keyword with its postings and idf ln(1 + N/df). The
/// per-match signals (tf, span, slack, path rarity) are computed against
/// it; this class is the only place the formula lives.
class QueryScorer {
 public:
  QueryScorer(const index::IndexedDocument& indexed,
              const twig::TwigQuery& query, const RankingOptions& options,
              Scratch* scratch)
      : indexed_(indexed), query_(query), options_(options),
        scratch_(*scratch) {
    const index::TermIndex& terms = indexed.terms();
    double n = std::max<uint32_t>(terms.num_value_nodes(), 1);
    for (twig::QueryNodeId q = 0; q < query.size(); ++q) {
      const twig::ValuePredicate& predicate = query.node(q).predicate;
      if (predicate.op == twig::ValuePredicate::Op::kEquals) {
        predicates_.push_back({q, true, {}});
      } else if (predicate.op == twig::ValuePredicate::Op::kContains) {
        Predicate& contains =
            predicates_.emplace_back(Predicate{q, false, {}});
        for (const std::string& text : TokenizeKeywords(predicate.text)) {
          // An unknown term has tf 0 everywhere and adds nothing.
          const index::PostingBlocks* postings = terms.PostingsFor(text);
          if (postings == nullptr) continue;
          contains.terms.push_back(
              {postings,
               std::log(1.0 + n / static_cast<double>(postings->size()))});
        }
      }
    }
  }

  /// Signals of every match into `signals` (parallel to `matches`).
  void Measure(std::span<const twig::Match> matches,
               std::span<Signals> signals) {
    AddContent(matches, signals);
    for (size_t i = 0; i < matches.size(); ++i) {
      signals[i].structure = Structure(matches[i]);
      signals[i].specificity = Specificity(matches[i]);
    }
  }

  /// The weighted sum of a match's signals.
  double Combine(const Signals& signals) const {
    return options_.content_weight * signals.content +
           options_.structure_weight * signals.structure +
           options_.specificity_weight * signals.specificity;
  }

  RankedResult Materialize(const twig::Match& match,
                           const Signals& signals) const {
    RankedResult result;
    result.match = match;
    result.output = match.bindings[static_cast<size_t>(query_.output())];
    result.content_score = signals.content;
    result.structure_score = signals.structure;
    result.specificity_score = signals.specificity;
    result.score = Combine(signals);
    return result;
  }

 private:
  struct Term {
    const index::PostingBlocks* postings;
    double idf;
  };
  struct Predicate {
    twig::QueryNodeId node;
    bool equals;              // kEquals: a fixed bonus, no terms
    std::vector<Term> terms;  // kContains: the indexed keywords, in order
  };

  /// Adds every match's content signal (the signals start at zero).
  /// Contributions land predicate by predicate and term by term in query
  /// order, so each match's sum is accumulated exactly as a per-match
  /// loop would. Each term's postings are swept once, in node order, over
  /// the (bound node, match) pairs of its predicate.
  void AddContent(std::span<const twig::Match> matches,
                  std::span<Signals> signals) {
    std::vector<uint64_t>& bound = scratch_.bound;
    for (const Predicate& predicate : predicates_) {
      if (predicate.equals) {
        // Exact matches are maximally relevant for that node.
        for (Signals& match_signals : signals) match_signals.content += 2.0;
        continue;
      }
      if (predicate.terms.empty()) continue;
      bound.clear();
      for (uint32_t i = 0; i < matches.size(); ++i) {
        xml::NodeId node =
            matches[i].bindings[static_cast<size_t>(predicate.node)];
        bound.push_back(
            (static_cast<uint64_t>(static_cast<uint32_t>(node)) << 32) | i);
      }
      std::sort(bound.begin(), bound.end());
      for (const Term& term : predicate.terms) {
        scratch_.arena.Reset();
        index::PostingBlocks::Cursor cursor =
            term.postings->NewCursor(&scratch_.arena);
        for (uint64_t pair : bound) {
          uint32_t node = static_cast<uint32_t>(pair >> 32);
          if (!cursor.SeekGE(node)) break;
          if (cursor.Key() != node) continue;
          // tf * idf with tf = 1 + ln(raw frequency).
          signals[static_cast<uint32_t>(pair)].content +=
              (1.0 + std::log(static_cast<double>(cursor.Payload()))) *
              term.idf;
        }
      }
    }
  }

  /// Structural compactness. Root span: fraction of the document the
  /// match covers (smaller is tighter); edge slack: depth gap on
  /// descendant edges beyond the minimal 1.
  double Structure(const twig::Match& match) const {
    const xml::Document& document = indexed_.document();
    xml::NodeId root_binding = match.bindings[0];
    double span = static_cast<double>(
        document.node(root_binding).subtree_end - root_binding + 1);
    double span_score = 1.0 / (1.0 + std::log(span));
    double slack = 0;
    for (twig::QueryNodeId q = 1; q < query_.size(); ++q) {
      xml::NodeId child = match.bindings[static_cast<size_t>(q)];
      xml::NodeId parent =
          match.bindings[static_cast<size_t>(query_.node(q).parent)];
      slack += document.node(child).depth - document.node(parent).depth - 1;
    }
    double slack_score = 1.0 / (1.0 + slack);
    return 0.5 * span_score + 0.5 * slack_score;
  }

  /// Position specificity: -log of the relative frequency of the bound
  /// paths (rare positions are more informative), averaged over nodes.
  double Specificity(const twig::Match& match) const {
    const index::DataGuide& guide = indexed_.dataguide();
    double total_nodes = std::max(1, indexed_.document().num_nodes());
    double specificity = 0;
    for (twig::QueryNodeId q = 0; q < query_.size(); ++q) {
      xml::NodeId bound = match.bindings[static_cast<size_t>(q)];
      index::PathId path = guide.PathOf(bound);
      if (path == index::kInvalidPathId) continue;
      double frequency = guide.node(path).count / total_nodes;
      specificity += -std::log(frequency);
    }
    return specificity / query_.size();
  }

  const index::IndexedDocument& indexed_;
  const twig::TwigQuery& query_;
  const RankingOptions& options_;
  Scratch& scratch_;
  std::vector<Predicate> predicates_;  // query order
};

}  // namespace

RankedResult Ranker::Score(const twig::TwigQuery& query,
                           const twig::Match& match,
                           const RankingOptions& options) const {
  QueryScorer scorer(indexed_, query, options, &ThreadScratch());
  Signals signals;
  scorer.Measure({&match, 1}, {&signals, 1});
  return scorer.Materialize(match, signals);
}

std::vector<RankedResult> Ranker::Rank(
    const twig::TwigQuery& query, const std::vector<twig::Match>& matches,
    const RankingOptions& options) const {
  Scratch& scratch = ThreadScratch();
  QueryScorer scorer(indexed_, query, options, &scratch);
  const size_t n = matches.size();
  std::vector<Signals>& signals = scratch.signals;
  signals.assign(n, Signals{});
  scorer.Measure(matches, signals);
  std::vector<Entry>& entries = scratch.entries;
  entries.resize(n);
  const size_t output = static_cast<size_t>(query.output());
  for (uint32_t i = 0; i < n; ++i) {
    entries[i] = {scorer.Combine(signals[i]), matches[i].bindings[output], i};
  }

  // Select the k best by (score desc, output asc, Match asc), order
  // them, and build only those k results.
  const size_t k = options.top_k == 0 ? n : std::min(options.top_k, n);
  const auto better = [&](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.output != b.output) return a.output < b.output;
    return matches[a.index] < matches[b.index];
  };
  const auto kth = entries.begin() + static_cast<ptrdiff_t>(k);
  std::nth_element(entries.begin(), kth, entries.end(), better);
  std::sort(entries.begin(), kth, better);
  std::vector<RankedResult> results;
  results.reserve(k);
  for (auto it = entries.begin(); it != kth; ++it) {
    results.push_back(
        scorer.Materialize(matches[it->index], signals[it->index]));
  }
  scratch.Trim();
  return results;
}

size_t RetainedScratchBytes() {
  const Scratch& scratch = ThreadScratch();
  return scratch.signals.capacity() * sizeof(Signals) +
         scratch.entries.capacity() * sizeof(Entry) +
         scratch.bound.capacity() * sizeof(uint64_t);
}

}  // namespace lotusx::ranking
