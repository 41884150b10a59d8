#ifndef LOTUSX_COMMON_TRACE_H_
#define LOTUSX_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace lotusx::trace {

/// Request-scoped tracing: RAII spans that record per-stage wall time
/// into the metrics registry (`lotusx_stage_latency_usec{stage="..."}`)
/// and build a span tree on the request's root QueryTrace. The root
/// turns into one RequestRecord (trace_store.h) that feeds the
/// slow-query log (`SLOWLOG`), the trace ring (`TRACE LAST/EXPORT`,
/// Chrome trace-event JSON), and the structured log line.
///
/// Usage in the pipeline:
///   trace::QueryTrace query_trace("engine");      // one per query
///   { trace::StageSpan span(trace::Stage::kParse); ... }
///   { trace::StageSpan span(trace::Stage::kRank); ... }
///   // ~QueryTrace records lotusx_search_latency_usec{source="engine"}
///   // and, as the root, emits one structured slow-query log line
///   // above the threshold.
///
/// StageSpan finds the active QueryTrace through a thread-local, so
/// deeply nested layers (the planner and executor inside Evaluate) feed
/// the breakdown of whichever query is running on their thread without
/// plumbing a context parameter through every signature. A StageSpan
/// with no active QueryTrace still feeds the stage histogram.
///
/// Nesting builds a tree: the outermost QueryTrace of a request is the
/// *root*; nested traces and stage spans append timestamped spans to it
/// and forward their stage times into the root's breakdown, so the
/// root's record sees work done by inner layers. ThreadPool
/// tasks do not inherit the thread-local — a task that should account
/// into its parent request wraps itself in `QueryTrace::Adoption`.

/// The pipeline stages, in pipeline order.
enum class Stage { kParse, kPlan, kExecute, kRank, kRewrite, kSerialize };
inline constexpr int kNumStages = 6;

std::string_view StageName(Stage stage);

/// Requests slower than this emit one structured warning log line
/// ("slow-query ...", see docs/DEVELOPMENT.md), land in the SLOWLOG
/// ring, and are retained in the trace ring regardless of sampling.
/// Negative disables; 0 logs every traced query. Initialized from the
/// LOTUSX_SLOW_QUERY_MS environment variable when set, else 250 ms.
/// Returns the previous threshold.
double SetSlowQueryThresholdMillis(double ms);
double SlowQueryThresholdMillis();

/// Fraction of requests whose full span tree is retained in the trace
/// ring (TRACE LAST / TRACE EXPORT / /tracez). Sampling is decided
/// deterministically from the trace ID, so one request's verdict is
/// identical on every layer. Slow queries are always retained.
/// Initialized from LOTUSX_TRACE_SAMPLE when set (a fraction in
/// [0, 1]), else 0.01. Returns the previous rate.
double SetTraceSampleRate(double rate);
double TraceSampleRate();

/// Mints a process-unique, never-zero request trace ID (well mixed, so
/// sampling can hash it). The connection layer mints one per command;
/// standalone entry points (REPL, tests, benches) get one implicitly
/// from the root QueryTrace constructor.
uint64_t MintTraceId();

/// `0x%016x` rendering used by logs, SLOWLOG, and TRACE; ParseTraceId
/// accepts the same form with or without the `0x` prefix and returns 0
/// on malformed input (0 is never a valid ID).
std::string FormatTraceId(uint64_t trace_id);
uint64_t ParseTraceId(std::string_view text);

/// One timed node of a request's span tree. Offsets are microseconds
/// relative to the root trace's start; `thread` is a small per-OS-thread
/// ordinal (stable within the process) so pool-worker spans group by
/// thread in Chrome trace viewers.
struct TraceSpan {
  std::string name;
  double start_us = 0;
  double duration_us = 0;
  int depth = 0;
  uint32_t thread = 0;
};

/// Wall-time trace of one query through the pipeline. Construction
/// installs it as the current trace of this thread (saving any previous
/// one, so nesting is safe); destruction records the total latency into
/// `lotusx_search_latency_usec{source="<component>"}`.
///
/// The outermost trace of a request (the *root*) additionally owns the
/// request's identity and span tree: it carries the trace ID, the
/// merged stage breakdown, the last search's fingerprint and detail,
/// and the recorded spans. On destruction the root builds the request's
/// one RequestRecord and hands it to the SLOWLOG ring (when slow), the
/// trace ring (when sampled or slow) and the log line (when slow, or
/// at Info severity) — see trace_store.h. A nested trace only adds its
/// span.
class QueryTrace {
 public:
  /// `component` labels the latency series ("engine", "session",
  /// "net", ...). A root trace uses `trace_id` when non-zero, else
  /// mints one; nested traces always inherit the root's ID.
  /// `observe_latency=false` skips the per-component latency histogram:
  /// the connection layer's per-command root passes false because its
  /// latency is already on `lotusx_net_command_latency_usec{verb}`, and
  /// three more contended atomics per command are measurable — the root
  /// then exists purely to carry the trace ID and catch slow commands.
  explicit QueryTrace(std::string_view component, uint64_t trace_id = 0,
                      bool observe_latency = true);
  ~QueryTrace();

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  /// The query text of the request record. Only a root's is read, and
  /// only when the request is retained or logged; it must be set before
  /// the trace is destroyed.
  void set_query(std::string query) LOTUSX_EXCLUDES(mu_);
  /// Non-owning variant for hot callers whose string provably outlives
  /// the trace (the connection layer's per-command root): skips the
  /// copy — and its heap allocation — on every request. The pointee is
  /// read once, at destruction, and only when the trace is retained or
  /// logged. An owning set_query() takes precedence if both are set.
  void set_query_view(std::string_view query) LOTUSX_EXCLUDES(mu_);
  /// Chosen algorithm / "cache-hit" of the request's search. Stored on
  /// the root, like the fingerprint; in a batch the last search wins.
  void set_detail(std::string detail) LOTUSX_EXCLUDES(mu_);

  /// Accumulates into this trace's breakdown and, when nested, into the
  /// request root's as well (so the root's record accounts work
  /// done by inner layers and adopted pool tasks). Lock-free: stage
  /// accumulators are relaxed atomics, cheap enough for every request.
  void AddStageMillis(Stage stage, double ms);
  double stage_millis(Stage stage) const;

  /// The request ID shared by every trace in this tree (never 0).
  uint64_t trace_id() const { return trace_id_; }
  /// Query fingerprint of the statement this request executed (0 until
  /// the engine computes one). Stored on the root so the connection
  /// layer can join a command back to its statement-store row, and so
  /// the SLOWLOG entry carries it. Relaxed atomic: set once by the
  /// engine, read by the destructor and the connection layer.
  void set_fingerprint(uint64_t fingerprint) {
    root_->fingerprint_.store(fingerprint, std::memory_order_relaxed);
  }
  uint64_t fingerprint() const {
    return root_->fingerprint_.load(std::memory_order_relaxed);
  }
  /// Whether the deterministic sampler retains this request's spans.
  bool sampled() const { return sampled_; }
  /// This request's root trace (`this` for the outermost).
  QueryTrace* root() const { return root_; }
  /// Microseconds since the root trace started (span timestamp base).
  double ElapsedMicrosInRoot() const;

  /// Appends one span to the root's tree (bounded; excess spans are
  /// counted as dropped, not stored). Called by StageSpan/NamedSpan.
  /// No-op unless the request is sampled: the span tree is detail for
  /// the trace ring, and paying a shared-mutex hop plus an allocation
  /// per span on every request blows the observability budget. Stage
  /// totals (the SLOWLOG breakdown) are always accumulated.
  void AppendSpan(TraceSpan span) LOTUSX_EXCLUDES(mu_);

  /// The innermost live QueryTrace of the calling thread, or nullptr.
  static QueryTrace* Current();

  /// Installs a *foreign* trace — typically the submitting thread's
  /// Current() captured at fan-out — as the calling thread's current
  /// trace for the scope, so pool-worker spans account into the parent
  /// request instead of vanishing. Null `parent` is a no-op, which
  /// keeps call sites unconditional. The parent must outlive the scope
  /// (ThreadPool fan-out joins before the parent trace dies).
  class Adoption {
   public:
    explicit Adoption(QueryTrace* parent);
    ~Adoption();

    Adoption(const Adoption&) = delete;
    Adoption& operator=(const Adoption&) = delete;

   private:
    QueryTrace* saved_ = nullptr;
    int saved_depth_ = 0;
    bool engaged_ = false;
  };

 private:
  void AddStageLocal(Stage stage, double ms);

  const std::string component_;
  QueryTrace* const previous_;  // outer trace of this thread, if any
  QueryTrace* const root_;      // outermost trace of the request
  uint64_t trace_id_ = 0;
  bool sampled_ = false;
  const bool observe_latency_;
  int depth_ = 0;               // span-tree depth (root == 0)
  uint32_t thread_ = 0;         // per-thread ordinal at construction
  double start_us_in_root_ = 0;
  Timer timer_;

  /// Adopted pool workers accumulate stage times concurrently with the
  /// owning thread on every request, so the breakdown is relaxed
  /// atomics rather than locked state.
  std::atomic<double> stage_ms_[kNumStages] = {};
  /// See set_fingerprint(); meaningful on the root only.
  std::atomic<uint64_t> fingerprint_{0};

  /// Strings and the span tree are touched rarely (query/detail once
  /// per search, spans only when sampled), so they stay locked. The
  /// lock is uncontended outside batch fan-out. detail_, spans_ and
  /// dropped_spans_ are meaningful on the root only.
  mutable Mutex mu_;
  std::string query_ LOTUSX_GUARDED_BY(mu_);
  std::string_view query_view_ LOTUSX_GUARDED_BY(mu_);
  std::string detail_ LOTUSX_GUARDED_BY(mu_);
  std::vector<TraceSpan> spans_ LOTUSX_GUARDED_BY(mu_);
  size_t dropped_spans_ LOTUSX_GUARDED_BY(mu_) = 0;
};

/// RAII stage timer: on destruction records the elapsed time into the
/// per-stage histogram, into the current thread's QueryTrace (if any),
/// and as a span on the request root. Effectively free when metrics are
/// disabled.
class StageSpan {
 public:
  explicit StageSpan(Stage stage);
  ~StageSpan();

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Stage stage_;
  QueryTrace* trace_ = nullptr;
  double start_us_ = 0;
  int depth_ = 0;
  Timer timer_;
};

/// RAII span with a free-form name (no stage histogram): marks units of
/// work that are not pipeline stages, e.g. one batch chunk on a pool
/// worker. No-op without an active QueryTrace or with metrics disabled.
class NamedSpan {
 public:
  explicit NamedSpan(std::string_view name);
  ~NamedSpan();

  NamedSpan(const NamedSpan&) = delete;
  NamedSpan& operator=(const NamedSpan&) = delete;

 private:
  std::string name_;
  QueryTrace* trace_ = nullptr;
  double start_us_ = 0;
  int depth_ = 0;
};

}  // namespace lotusx::trace

#endif  // LOTUSX_COMMON_TRACE_H_
