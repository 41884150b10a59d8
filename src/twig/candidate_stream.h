#ifndef LOTUSX_TWIG_CANDIDATE_STREAM_H_
#define LOTUSX_TWIG_CANDIDATE_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "index/posting_blocks.h"
#include "xml/dom.h"

namespace lotusx::twig {

/// The candidate stream a twig algorithm consumes for one query node,
/// honoring the PostingCursor contract (see index/posting_cursor.h)
/// without virtual dispatch. Two modes:
///
///  - block mode: a lazy cursor straight over the tag stream's
///    PostingBlocks — nothing is decoded until the join touches it, and
///    SeekGE skips whole blocks via the skip index;
///  - span mode: a pre-filtered, arena-resident id list (predicates,
///    schema pruning, wildcard streams), sought by galloping.
///
/// Move-only (the block cursor owns arena scratch).
class CandidateStream {
 public:
  CandidateStream() = default;
  CandidateStream(CandidateStream&&) = default;
  CandidateStream& operator=(CandidateStream&&) = default;
  CandidateStream(const CandidateStream&) = delete;
  CandidateStream& operator=(const CandidateStream&) = delete;

  static CandidateStream FromSpan(std::span<const xml::NodeId> ids) {
    CandidateStream stream;
    stream.span_ = ids;
    stream.count_ = ids.size();
    stream.read_ = ids.empty() ? 0 : 1;
    return stream;
  }

  static CandidateStream FromBlocks(const index::PostingBlocks* blocks,
                                    Arena* arena,
                                    index::PostingStats* stats) {
    CandidateStream stream;
    stream.use_blocks_ = true;
    stream.cursor_ = blocks->NewCursor(arena, stats);
    stream.count_ = blocks->size();
    stream.read_ = stream.cursor_.AtEnd() ? 0 : 1;
    return stream;
  }

  /// Logical stream size (elements a full scan would read).
  uint64_t count() const { return count_; }

  /// Elements the join has positioned this stream on: the head at open,
  /// and every element a Next or SeekGE landed on. Elements a seek jumps
  /// over are not read. This is what EvalStats::candidates_scanned
  /// accumulates.
  uint64_t read() const { return read_; }

  bool AtEnd() const {
    return use_blocks_ ? cursor_.AtEnd() : pos_ >= span_.size();
  }

  xml::NodeId Key() const {
    return use_blocks_ ? static_cast<xml::NodeId>(cursor_.Key())
                       : span_[pos_];
  }

  void Next() {
    if (use_blocks_) {
      cursor_.Next();
    } else {
      ++pos_;
    }
    if (!AtEnd()) ++read_;
  }

  /// Advances to the first candidate >= `target` (no-op when already
  /// there); returns false iff the stream ran off the end.
  bool SeekGE(xml::NodeId target) {
    if (AtEnd()) return false;
    if (Key() >= target) return true;
    if (use_blocks_) {
      if (!cursor_.SeekGE(static_cast<uint32_t>(target))) return false;
      ++read_;
      return true;
    }
    // Gallop: doubling probe from the current position, then binary
    // search over the narrowed range.
    size_t low = pos_ + 1;
    size_t step = 1;
    while (low + step < span_.size() && span_[low + step] < target) {
      low += step;
      step *= 2;
    }
    pos_ = static_cast<size_t>(
        std::lower_bound(span_.begin() + static_cast<ptrdiff_t>(low),
                         span_.end(), target) -
        span_.begin());
    if (pos_ >= span_.size()) return false;
    ++read_;
    return true;
  }

 private:
  bool use_blocks_ = false;
  std::span<const xml::NodeId> span_;
  size_t pos_ = 0;
  index::PostingBlocks::Cursor cursor_;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
};

/// Sum of read() over a join's streams: its EvalStats::candidates_scanned.
inline uint64_t ElementsRead(const std::vector<CandidateStream>& streams) {
  uint64_t read = 0;
  for (const CandidateStream& stream : streams) read += stream.read();
  return read;
}

}  // namespace lotusx::twig

#endif  // LOTUSX_TWIG_CANDIDATE_STREAM_H_
