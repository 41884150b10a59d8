#include "common/trace_store.h"

#include <algorithm>
#include <cstdio>
#include <ctime>

namespace lotusx::trace {

namespace {

std::string FormatFixed(double value, int digits = 3) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

/// ISO-8601 UTC with millisecond precision, e.g. 2026-08-08T12:00:01.042Z.
std::string FormatWallTime(int64_t unix_us) {
  const time_t seconds = static_cast<time_t>(unix_us / 1'000'000);
  const int millis = static_cast<int>((unix_us % 1'000'000) / 1000);
  struct tm parts {};
  ::gmtime_r(&seconds, &parts);
  char buffer[80];
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", parts.tm_year + 1900,
                parts.tm_mon + 1, parts.tm_mday, parts.tm_hour, parts.tm_min,
                parts.tm_sec, millis);
  return buffer;
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

RequestRing::RequestRing(size_t capacity, bool numbered)
    : capacity_(capacity > 0 ? capacity : 1), numbered_(numbered) {}

void RequestRing::Add(std::shared_ptr<RequestRecord> record) {
  MutexLock lock(mu_);
  ++added_;
  if (numbered_) record->id = added_;
  ring_.push_back(std::move(record));
  while (ring_.size() > capacity_) ring_.pop_front();
}

RequestRecords RequestRing::Last(size_t n) const {
  MutexLock lock(mu_);
  const size_t count = std::min(n, ring_.size());
  return RequestRecords(ring_.rbegin(), ring_.rbegin() + count);
}

std::shared_ptr<const RequestRecord> RequestRing::Find(
    uint64_t trace_id) const {
  MutexLock lock(mu_);
  for (auto it = ring_.rbegin(); it != ring_.rend(); ++it) {
    if ((*it)->trace_id == trace_id) return *it;
  }
  return nullptr;
}

size_t RequestRing::Len() const {
  MutexLock lock(mu_);
  return ring_.size();
}

uint64_t RequestRing::TotalAdded() const {
  MutexLock lock(mu_);
  return added_;
}

void RequestRing::Reset() {
  MutexLock lock(mu_);
  ring_.clear();
}

// Both leaked so shutdown-order races with late traces cannot touch a
// destroyed ring (same lifetime policy as metrics::Registry).
RequestRing& SlowRing() {
  static RequestRing* ring = new RequestRing(128, /*numbered=*/true);
  return *ring;
}

RequestRing& TraceRing() {
  static RequestRing* ring = new RequestRing(256, /*numbered=*/false);
  return *ring;
}

std::string RenderRecordText(const RequestRecord& record) {
  std::string out;
  if (record.id != 0) out += "id=" + std::to_string(record.id) + ' ';
  out += "source=" + record.component;
  out += " trace=" + FormatTraceId(record.trace_id);
  if (record.fingerprint != 0) {
    out += " fingerprint=" + FormatTraceId(record.fingerprint);
  }
  out += " time=" + FormatWallTime(record.wall_start_us);
  out += " total_ms=" + FormatFixed(record.total_ms);
  if (!record.detail.empty()) out += " algorithm=" + record.detail;
  // Quoted with JSON string escapes, so a `"` or `\` in the query cannot
  // end the value early and the line stays one line.
  out += " query=\"";
  AppendJsonEscaped(&out, record.query);
  out += '"';
  // Stage times overlap (rewrite re-enters plan/execute), so they need
  // not sum to total_ms.
  out += " stages=";
  bool first = true;
  for (int i = 0; i < kNumStages; ++i) {
    if (record.stage_ms[i] <= 0) continue;
    if (!first) out += ',';
    first = false;
    out += StageName(static_cast<Stage>(i));
    out += ':';
    out += FormatFixed(record.stage_ms[i]);
  }
  if (first) out += "(none)";
  return out;
}

std::string RenderSlowLogText(const RequestRecords& records) {
  if (records.empty()) return "(empty)";
  std::string out;
  for (const std::shared_ptr<const RequestRecord>& record : records) {
    if (!out.empty()) out += '\n';
    out += RenderRecordText(*record);
  }
  return out;
}

std::string RenderSlowLogJson(const RequestRecords& records) {
  std::string out = "{\"entries\":[";
  bool first_entry = true;
  for (const std::shared_ptr<const RequestRecord>& record : records) {
    const RequestRecord& entry = *record;
    if (!first_entry) out += ',';
    first_entry = false;
    out += "{\"id\":" + std::to_string(entry.id);
    out += ",\"trace_id\":\"" + FormatTraceId(entry.trace_id) + "\"";
    out += ",\"fingerprint\":\"" + FormatTraceId(entry.fingerprint) + "\"";
    out += ",\"time\":\"" + FormatWallTime(entry.wall_start_us) + "\"";
    out += ",\"unix_us\":" + std::to_string(entry.wall_start_us);
    out += ",\"total_ms\":" + FormatFixed(entry.total_ms);
    out += ",\"source\":\"";
    AppendJsonEscaped(&out, entry.component);
    out += "\",\"algorithm\":\"";
    AppendJsonEscaped(&out, entry.detail);
    out += "\",\"query\":\"";
    AppendJsonEscaped(&out, entry.query);
    out += "\",\"stages\":{";
    bool first_stage = true;
    for (int i = 0; i < kNumStages; ++i) {
      if (entry.stage_ms[i] <= 0) continue;
      if (!first_stage) out += ',';
      first_stage = false;
      out += '"';
      out += StageName(static_cast<Stage>(i));
      out += "\":" + FormatFixed(entry.stage_ms[i]);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string RenderTraceText(const RequestRecords& records) {
  if (records.empty()) return "(empty)";
  std::string out;
  for (const std::shared_ptr<const RequestRecord>& record : records) {
    const RequestRecord& trace = *record;
    if (!out.empty()) out += '\n';
    out += RenderRecordText(trace);
    out += trace.slow ? " slow=yes" : " slow=no";
    out += " spans=" + std::to_string(trace.spans.size());
    if (trace.dropped_spans > 0) {
      out += " dropped=" + std::to_string(trace.dropped_spans);
    }
    std::vector<TraceSpan> ordered = trace.spans;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const TraceSpan& a, const TraceSpan& b) {
                       return a.start_us < b.start_us;
                     });
    for (const TraceSpan& span : ordered) {
      out += '\n';
      out.append(2 * static_cast<size_t>(std::max(span.depth, 1)), ' ');
      out += "+" + FormatFixed(span.start_us / 1000.0) + "ms ";
      out += FormatFixed(span.duration_us / 1000.0) + "ms ";
      out += "[t" + std::to_string(span.thread) + "] ";
      out += span.name;
    }
  }
  return out;
}

std::string ChromeTraceJson(const RequestRecords& records) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append_event = [&](std::string_view name, double ts_us, double dur_us,
                          uint32_t tid, const std::string& args) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, name);
    out += "\",\"ph\":\"X\",\"ts\":" + FormatFixed(ts_us);
    out += ",\"dur\":" + FormatFixed(std::max(dur_us, 0.0));
    out += ",\"pid\":1,\"tid\":" + std::to_string(tid);
    out += ",\"args\":{" + args + "}}";
  };
  for (const std::shared_ptr<const RequestRecord>& record : records) {
    const RequestRecord& trace = *record;
    std::string args = "\"trace_id\":\"" + FormatTraceId(trace.trace_id) +
                       "\",\"query\":\"";
    AppendJsonEscaped(&args, trace.query);
    args += "\",\"slow\":";
    args += trace.slow ? "true" : "false";
    const double base_us = static_cast<double>(trace.wall_start_us);
    append_event(trace.component, base_us, trace.total_ms * 1000.0,
                 trace.thread, args);
    for (const TraceSpan& span : trace.spans) {
      append_event(span.name, base_us + span.start_us, span.duration_us,
                   span.thread,
                   "\"depth\":" + std::to_string(span.depth));
    }
  }
  out += "]}";
  return out;
}

}  // namespace lotusx::trace
