#ifndef LOTUSX_COMMON_TRACE_STORE_H_
#define LOTUSX_COMMON_TRACE_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "common/trace.h"

namespace lotusx::trace {

/// Retention for completed requests. ~QueryTrace builds one
/// RequestRecord per remarkable request root (slow, sampled, or logged
/// in verbose mode) and hands the same immutable record to the slow
/// ring, the trace ring and the log line. The introspection surfaces —
/// the SLOWLOG / TRACE protocol verbs and the HTTP admin plane
/// (/slowlog.json, /tracez) — read the rings.

/// One finished request: the root trace's identity, text, merged
/// per-stage breakdown (including stages executed by adopted pool
/// workers), and span tree (empty unless sampled).
struct RequestRecord {
  /// SLOWLOG id, stamped by the slow ring (0 for a request that was not
  /// slow).
  uint64_t id = 0;
  uint64_t trace_id = 0;
  /// Statement fingerprint (twig/fingerprint.h) of the last search this
  /// request ran; 0 when none was fingerprinted. Joins the request back
  /// to its STATEMENTS row.
  uint64_t fingerprint = 0;
  int64_t wall_start_us = 0;  // unix µs when the request started
  std::string component;
  std::string query;
  std::string detail;  // algorithm / "cache-hit" of the last search
  double total_ms = 0;
  double stage_ms[kNumStages] = {};
  bool slow = false;
  uint32_t thread = 0;  // root thread ordinal
  std::vector<TraceSpan> spans;
  size_t dropped_spans = 0;
};

using RequestRecords = std::vector<std::shared_ptr<const RequestRecord>>;

/// Bounded ring of the newest records. A record held by both rings is
/// stored once. Writers never block on readers beyond the ring mutex,
/// and readers copy pointers, not span vectors.
class RequestRing {
 public:
  /// `numbered`: Add stamps each record's `id` with the ring's next
  /// ordinal (1, 2, ...; monotonic across Reset).
  RequestRing(size_t capacity, bool numbered);

  /// Takes `record`, stamping its id when numbered. Readers may see a
  /// record as soon as one ring holds it and it must not change after,
  /// so a record bound for both rings goes to the numbered one first.
  void Add(std::shared_ptr<RequestRecord> record) LOTUSX_EXCLUDES(mu_);
  /// Newest first, at most `n` records.
  RequestRecords Last(size_t n) const LOTUSX_EXCLUDES(mu_);
  /// The most recent retained record with this trace ID, or null.
  std::shared_ptr<const RequestRecord> Find(uint64_t trace_id) const
      LOTUSX_EXCLUDES(mu_);
  /// Records currently retained.
  size_t Len() const LOTUSX_EXCLUDES(mu_);
  /// Records ever added (survives Reset; monotonic).
  uint64_t TotalAdded() const LOTUSX_EXCLUDES(mu_);
  void Reset() LOTUSX_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  const bool numbered_;
  mutable Mutex mu_;
  std::deque<std::shared_ptr<const RequestRecord>> ring_
      LOTUSX_GUARDED_BY(mu_);
  uint64_t added_ LOTUSX_GUARDED_BY(mu_) = 0;
};

/// The process-wide rings. The slow ring (`SLOWLOG`, `/slowlog.json`)
/// keeps the newest 128 slow roots, numbered; slow queries are always
/// captured, sampling only affects the trace ring. The trace ring
/// (`TRACE LAST|EXPORT`, `/tracez`) keeps the newest 256 sampled or
/// slow roots.
RequestRing& SlowRing();
RequestRing& TraceRing();

/// The key=value form of one record, shared by the structured log line
/// and `SLOWLOG GET`:
///   id=3 source=net trace=0x… fingerprint=0x… time=… total_ms=…
///   algorithm=twigstack query="RUN" stages=parse:0.100,execute:1.250
/// (one line; `id`, `fingerprint` and `algorithm` only when set).
std::string RenderRecordText(const RequestRecord& record);

/// Renderers shared by the protocol verbs and the HTTP admin plane.
/// SLOWLOG text is one RenderRecordText line per record; TRACE LAST
/// adds each record's indented span tree; JSON forms are stable
/// machine-readable objects; ChromeTraceJson is the Chrome trace-event
/// format (`{"traceEvents": [...]}`), directly loadable in Perfetto.
std::string RenderSlowLogText(const RequestRecords& records);
std::string RenderSlowLogJson(const RequestRecords& records);
std::string RenderTraceText(const RequestRecords& records);
std::string ChromeTraceJson(const RequestRecords& records);

}  // namespace lotusx::trace

#endif  // LOTUSX_COMMON_TRACE_STORE_H_
