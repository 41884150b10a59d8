#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>  // NOLINT(lotusx-sync): std::once_flag only, no locking
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_store.h"

namespace lotusx::trace {

namespace {

thread_local QueryTrace* g_current_trace = nullptr;
/// Span-tree depth of the next span opened on this thread. QueryTrace
/// and StageSpan/NamedSpan strictly nest per thread, so a plain
/// counter stays balanced; Adoption saves/restores it around foreign
/// scopes.
thread_local int g_span_depth = 0;

/// Span storage cap per request: a runaway query (deep rewrite loops,
/// huge batches) degrades to a dropped-span count instead of unbounded
/// memory.
constexpr size_t kMaxSpansPerTrace = 512;

/// Threshold in microseconds; negative disables the slow-query log.
std::atomic<int64_t> g_slow_query_usec = [] {
  if (const char* env = std::getenv("LOTUSX_SLOW_QUERY_MS")) {
    char* end = nullptr;
    const double ms = std::strtod(env, &end);
    if (end != env && *end == '\0') return static_cast<int64_t>(ms * 1000.0);
  }
  return static_cast<int64_t>(250 * 1000);  // 250 ms default
}();

/// Trace-ring sampling rate in [0, 1].
std::atomic<double> g_trace_sample_rate = [] {
  if (const char* env = std::getenv("LOTUSX_TRACE_SAMPLE")) {
    char* end = nullptr;
    const double rate = std::strtod(env, &end);
    if (end != env && *end == '\0' && rate >= 0.0 && rate <= 1.0) {
      return rate;
    }
  }
  return 0.01;  // retain 1% of requests by default
}();

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic per-request sampling verdict: hash the ID into [0, 1)
/// and compare against the rate, so every layer that sees the same
/// trace ID reaches the same verdict.
bool SampleDecision(uint64_t trace_id) {
  const double rate = g_trace_sample_rate.load(std::memory_order_relaxed);
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  const uint64_t mixed = SplitMix64(trace_id);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53 < rate;
}

/// Small per-OS-thread ordinal (1, 2, ...) used as the `tid` of
/// exported trace events — readable where gettid() values are not.
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

int64_t UnixMicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Per-component request-latency histogram, cached per thread: the
/// lookup runs in every QueryTrace destructor, and hitting the registry
/// (global mutex + label-map allocation) per request is measurable at
/// serving throughput. Components form a tiny closed set, so the cache
/// stays a handful of entries.
metrics::Histogram* ComponentLatencyHistogram(const std::string& component) {
  thread_local std::unordered_map<std::string, metrics::Histogram*> cache;
  auto it = cache.find(component);
  if (it != cache.end()) return it->second;
  metrics::Histogram* histogram = metrics::Registry::Default().GetHistogram(
      "lotusx_search_latency_usec", {{"source", component}});
  cache.emplace(component, histogram);
  return histogram;
}

metrics::Histogram* StageHistogram(Stage stage) {
  static metrics::Histogram* histograms[kNumStages] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (int i = 0; i < kNumStages; ++i) {
      histograms[i] = metrics::Registry::Default().GetHistogram(
          "lotusx_stage_latency_usec",
          {{"stage", std::string(StageName(static_cast<Stage>(i)))}});
    }
  });
  return histograms[static_cast<int>(stage)];
}

}  // namespace

std::string_view StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kPlan:
      return "plan";
    case Stage::kExecute:
      return "execute";
    case Stage::kRank:
      return "rank";
    case Stage::kRewrite:
      return "rewrite";
    case Stage::kSerialize:
      return "serialize";
  }
  return "?";
}

double SetSlowQueryThresholdMillis(double ms) {
  const int64_t usec = ms < 0 ? -1 : static_cast<int64_t>(ms * 1000.0);
  return static_cast<double>(g_slow_query_usec.exchange(
             usec, std::memory_order_relaxed)) /
         1000.0;
}

double SlowQueryThresholdMillis() {
  const int64_t usec = g_slow_query_usec.load(std::memory_order_relaxed);
  return usec < 0 ? -1 : static_cast<double>(usec) / 1000.0;
}

double SetTraceSampleRate(double rate) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  return g_trace_sample_rate.exchange(rate, std::memory_order_relaxed);
}

double TraceSampleRate() {
  return g_trace_sample_rate.load(std::memory_order_relaxed);
}

uint64_t MintTraceId() {
  // Counter seeded with boot-time entropy: IDs stay unique within a
  // process and do not repeat the same sequence across restarts. Each
  // thread claims a block of ordinals at a time so the shared counter
  // is touched once per 4096 mints, not once per request (a contended
  // fetch_add per command is measurable at serving throughput).
  constexpr uint64_t kBlock = 4096;
  static std::atomic<uint64_t> next_block{
      SplitMix64(static_cast<uint64_t>(UnixMicrosNow()))};
  thread_local uint64_t cursor = 0;
  thread_local uint64_t remaining = 0;
  if (remaining == 0) {
    cursor = next_block.fetch_add(kBlock, std::memory_order_relaxed);
    remaining = kBlock;
  }
  --remaining;
  const uint64_t id = SplitMix64(++cursor);
  return id != 0 ? id : 1;
}

std::string FormatTraceId(uint64_t trace_id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(trace_id));
  return buffer;
}

uint64_t ParseTraceId(std::string_view text) {
  if (text.size() >= 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return 0;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return 0;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

QueryTrace::QueryTrace(std::string_view component, uint64_t trace_id,
                       bool observe_latency)
    : component_(component),
      previous_(g_current_trace),
      root_(previous_ != nullptr ? previous_->root_ : this),
      observe_latency_(observe_latency) {
  g_current_trace = this;
  depth_ = g_span_depth++;
  thread_ = ThreadOrdinal();
  if (root_ == this) {
    trace_id_ = trace_id != 0 ? trace_id : MintTraceId();
    sampled_ = SampleDecision(trace_id_);
    // wall_start_us_ is derived at destruction (total - elapsed): the
    // wall clock is only read for retained traces, not per request.
  } else {
    trace_id_ = root_->trace_id_;
    sampled_ = root_->sampled_;
    start_us_in_root_ = root_->timer_.ElapsedMicros();
  }
}

QueryTrace::~QueryTrace() {
  g_current_trace = previous_;
  --g_span_depth;
  if (!metrics::Enabled()) return;
  const double total_ms = timer_.ElapsedMillis();
  if (observe_latency_) {
    ComponentLatencyHistogram(component_)->Observe(total_ms * 1000.0);
  }
  if (root_ != this) {
    // A nested trace is one span of its request; the root records the
    // request.
    if (sampled_) {
      root_->AppendSpan(TraceSpan{component_, start_us_in_root_,
                                  total_ms * 1000.0, depth_, thread_});
    }
    return;
  }

  const double threshold_ms = SlowQueryThresholdMillis();
  const bool slow = threshold_ms >= 0 && total_ms >= threshold_ms;
  const bool verbose = MinLogSeverity() <= LogSeverity::kInfo;
  // Fast path for the unremarkable 99%: nothing retained, nothing
  // logged — skip the lock and the string copies entirely.
  if (!slow && !sampled_ && !verbose) return;

  // The request's one record: retained by the rings below and rendered
  // into the log line.
  auto record = std::make_shared<RequestRecord>();
  record->trace_id = trace_id_;
  record->fingerprint = fingerprint_.load(std::memory_order_relaxed);
  // The wall clock is read only here, for remarkable requests.
  record->wall_start_us =
      UnixMicrosNow() - static_cast<int64_t>(total_ms * 1000.0);
  record->component = component_;
  record->total_ms = total_ms;
  for (int i = 0; i < kNumStages; ++i) {
    record->stage_ms[i] = stage_ms_[i].load(std::memory_order_relaxed);
  }
  record->slow = slow;
  record->thread = thread_;
  {
    MutexLock lock(mu_);
    record->query = query_.empty() ? std::string(query_view_) : query_;
    record->detail = std::move(detail_);
    record->spans = std::move(spans_);
    record->dropped_spans = dropped_spans_;
  }
  if (slow) {
    static metrics::Counter* slow_queries =
        metrics::Registry::Default().GetCounter("lotusx_slow_queries_total");
    slow_queries->Increment();
    SlowRing().Add(record);  // stamps the SLOWLOG id the line shows
  }
  if (slow || sampled_) TraceRing().Add(record);
  // Fast queries get the same line at Info, so verbose mode traces
  // every request.
  if (slow) {
    LOTUSX_LOG(Warning) << "slow-query " << RenderRecordText(*record);
  } else if (verbose) {
    LOTUSX_LOG(Info) << "query " << RenderRecordText(*record);
  }
}

void QueryTrace::set_query(std::string query) {
  MutexLock lock(mu_);
  query_ = std::move(query);
}

void QueryTrace::set_query_view(std::string_view query) {
  MutexLock lock(mu_);
  query_view_ = query;
}

void QueryTrace::set_detail(std::string detail) {
  QueryTrace* root = root_;
  MutexLock lock(root->mu_);
  root->detail_ = std::move(detail);
}

void QueryTrace::AddStageLocal(Stage stage, double ms) {
  stage_ms_[static_cast<int>(stage)].fetch_add(ms,
                                               std::memory_order_relaxed);
}

void QueryTrace::AddStageMillis(Stage stage, double ms) {
  AddStageLocal(stage, ms);
  if (root_ != this) root_->AddStageLocal(stage, ms);
}

double QueryTrace::stage_millis(Stage stage) const {
  return stage_ms_[static_cast<int>(stage)].load(std::memory_order_relaxed);
}

double QueryTrace::ElapsedMicrosInRoot() const {
  return root_->timer_.ElapsedMicros();
}

void QueryTrace::AppendSpan(TraceSpan span) {
  QueryTrace* root = root_;
  if (!root->sampled_) return;  // span detail is for sampled requests
  MutexLock lock(root->mu_);
  if (root->spans_.size() >= kMaxSpansPerTrace) {
    ++root->dropped_spans_;
    return;
  }
  root->spans_.push_back(std::move(span));
}

QueryTrace* QueryTrace::Current() { return g_current_trace; }

QueryTrace::Adoption::Adoption(QueryTrace* parent) {
  if (parent == nullptr) return;
  engaged_ = true;
  saved_ = g_current_trace;
  saved_depth_ = g_span_depth;
  g_current_trace = parent;
  g_span_depth = parent->depth_ + 1;
}

QueryTrace::Adoption::~Adoption() {
  if (!engaged_) return;
  g_current_trace = saved_;
  g_span_depth = saved_depth_;
}

StageSpan::StageSpan(Stage stage) : stage_(stage) {
  if (!metrics::Enabled()) return;
  trace_ = QueryTrace::Current();
  if (trace_ != nullptr) {
    start_us_ = trace_->ElapsedMicrosInRoot();
    depth_ = g_span_depth++;
  }
}

StageSpan::~StageSpan() {
  if (trace_ != nullptr) --g_span_depth;
  if (!metrics::Enabled()) return;
  const double us = timer_.ElapsedMicros();
  StageHistogram(stage_)->Observe(us);
  if (trace_ == nullptr) return;
  trace_->AddStageMillis(stage_, us / 1000.0);
  if (trace_->sampled()) {
    trace_->AppendSpan(TraceSpan{std::string(StageName(stage_)), start_us_,
                                 us, depth_, ThreadOrdinal()});
  }
}

NamedSpan::NamedSpan(std::string_view name) {
  if (!metrics::Enabled()) return;
  trace_ = QueryTrace::Current();
  // A span is this class's only output, so an unsampled request makes
  // the whole scope a no-op (stage accounting still happens via the
  // StageSpans inside).
  if (trace_ != nullptr && !trace_->sampled()) trace_ = nullptr;
  if (trace_ != nullptr) {
    name_ = name;
    start_us_ = trace_->ElapsedMicrosInRoot();
    depth_ = g_span_depth++;
  }
}

NamedSpan::~NamedSpan() {
  if (trace_ == nullptr) return;
  --g_span_depth;
  if (!metrics::Enabled()) return;
  const double dur_us = trace_->ElapsedMicrosInRoot() - start_us_;
  trace_->AppendSpan(
      TraceSpan{std::move(name_), start_us_, dur_us, depth_, ThreadOrdinal()});
}

}  // namespace lotusx::trace
