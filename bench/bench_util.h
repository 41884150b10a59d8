#ifndef LOTUSX_BENCH_BENCH_UTIL_H_
#define LOTUSX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/alloc_tracker.h"
#include "common/logging.h"
#include "common/sync.h"
#include "common/timer.h"
#include "datagen/datagen.h"
#include "index/indexed_document.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"

namespace lotusx::bench {

/// True when LOTUSX_BENCH_SMOKE is set: CI's bench smoke job runs every
/// binary on one tiny document with one repetition, proving the bench
/// still builds and executes end to end — the numbers are meaningless.
inline bool SmokeMode() {
  static const bool smoke = std::getenv("LOTUSX_BENCH_SMOKE") != nullptr;
  return smoke;
}

/// `full` approximate nodes normally, a tiny document in smoke mode.
inline int64_t ScaledNodes(int64_t full, int64_t smoke = 2'000) {
  return SmokeMode() ? smoke : full;
}

/// The document sizes a bench sweeps: the full ladder normally, one tiny
/// size in smoke mode.
inline std::vector<int64_t> Scales(std::vector<int64_t> full,
                                   int64_t smoke = 2'000) {
  if (SmokeMode()) return {smoke};
  return full;
}

/// Per-operation heap profile of a timed region: the alloc-tracker
/// counter deltas across all timed repetitions, divided by repetitions.
struct AllocPerOp {
  double allocs = 0;
  double bytes = 0;
};

/// Sorted wall-clock samples (milliseconds) of `fn` over `repetitions`
/// runs, after one warm-up run. Smoke mode clamps to a single run so
/// every call site speeds up without edits. When `alloc` is non-null it
/// receives the per-repetition heap allocation profile of the timed
/// runs (warm-up excluded).
inline std::vector<double> SampleMillis(int repetitions,
                                        const std::function<void()>& fn,
                                        AllocPerOp* alloc = nullptr) {
  if (SmokeMode()) repetitions = 1;
  fn();  // warm-up
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repetitions));
  AllocCounters before = CurrentAllocCounters();
  for (int i = 0; i < repetitions; ++i) {
    Timer timer;
    fn();
    samples.push_back(timer.ElapsedMillis());
  }
  if (alloc != nullptr) {
    AllocCounters after = CurrentAllocCounters();
    // push_back above allocates too, but samples was reserved up front,
    // so the delta is the workload's own heap traffic.
    alloc->allocs = static_cast<double>(after.allocs - before.allocs) /
                    static_cast<double>(repetitions);
    alloc->bytes = static_cast<double>(after.bytes - before.bytes) /
                   static_cast<double>(repetitions);
  }
  std::sort(samples.begin(), samples.end());
  return samples;
}

/// One measurement destined for the machine-readable --json report.
struct BenchRecord {
  std::string name;    // measurement family, e.g. "evaluate"
  std::string params;  // free-form key=value parameters
  int reps = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  double p99_ns = 0;
  double mean_ns = 0;
  double bytes_per_op = 0;
  double allocs_per_op = 0;
};

/// Process-wide collector behind the `--json out.json` bench mode: every
/// named measurement (the MedianMillis overload below, TimedEvaluate)
/// appends a record; WriteJsonIfRequested dumps them as a JSON array so
/// CI can archive bench numbers as artifacts.
class BenchJson {
 public:
  static BenchJson& Instance() {
    static BenchJson instance;
    return instance;
  }

  /// Records one measurement from its sorted millisecond samples.
  void Record(std::string_view name, std::string_view params,
              const std::vector<double>& sorted_samples_ms,
              const AllocPerOp& alloc = {}) {
    if (sorted_samples_ms.empty()) return;
    BenchRecord record;
    record.name = std::string(name);
    record.params = std::string(params);
    record.reps = static_cast<int>(sorted_samples_ms.size());
    auto percentile = [&](double q) {
      size_t index = static_cast<size_t>(
          q * static_cast<double>(sorted_samples_ms.size() - 1) + 0.5);
      return sorted_samples_ms[index] * 1e6;  // ms -> ns
    };
    record.p50_ns = percentile(0.50);
    record.p95_ns = percentile(0.95);
    record.p99_ns = percentile(0.99);
    record.mean_ns = std::accumulate(sorted_samples_ms.begin(),
                                     sorted_samples_ms.end(), 0.0) /
                     static_cast<double>(sorted_samples_ms.size()) * 1e6;
    record.bytes_per_op = alloc.bytes;
    record.allocs_per_op = alloc.allocs;
    MutexLock lock(mu_);
    records_.push_back(std::move(record));
  }

  /// Writes the accumulated records to `path` as a JSON array.
  bool WriteTo(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    MutexLock lock(mu_);
    std::fputs("[\n", file);
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(file,
                   "  {\"name\": \"%s\", \"params\": \"%s\", \"reps\": %d, "
                   "\"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f, "
                   "\"mean_ns\": %.1f, \"bytes_per_op\": %.1f, "
                   "\"allocs_per_op\": %.1f}%s\n",
                   Escape(r.name).c_str(), Escape(r.params).c_str(), r.reps,
                   r.p50_ns, r.p95_ns, r.p99_ns, r.mean_ns, r.bytes_per_op,
                   r.allocs_per_op, i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", file);
    std::fclose(file);
    return true;
  }

  size_t size() const {
    MutexLock lock(mu_);
    return records_.size();
  }

 private:
  static std::string Escape(std::string_view text) {
    std::string escaped;
    escaped.reserve(text.size());
    for (char c : text) {
      switch (c) {
        case '"':
          escaped += "\\\"";
          break;
        case '\\':
          escaped += "\\\\";
          break;
        case '\n':
          escaped += "\\n";
          break;
        case '\t':
          escaped += "\\t";
          break;
        default:
          escaped += c;
      }
    }
    return escaped;
  }

  mutable Mutex mu_;
  std::vector<BenchRecord> records_ LOTUSX_GUARDED_BY(mu_);
};

/// Call at the end of main: when the binary was invoked with
/// `--json out.json` (or `--json=out.json`), dumps every recorded
/// measurement to that file. Returns main's exit code.
inline int WriteJsonIfRequested(int argc, char** argv) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.substr(0, 7) == "--json=") {
      path = argv[i] + 7;
    }
  }
  if (path == nullptr) return 0;
  if (!BenchJson::Instance().WriteTo(path)) return 1;
  std::printf("wrote %s (%zu records)\n", path,
              BenchJson::Instance().size());
  return 0;
}

/// Median wall-clock milliseconds of `fn` over `repetitions` runs (after
/// one warm-up run); see SampleMillis for smoke-mode behavior.
inline double MedianMillis(int repetitions, const std::function<void()>& fn) {
  std::vector<double> samples = SampleMillis(repetitions, fn);
  return samples[samples.size() / 2];
}

/// Same, additionally recording (name, params, reps, p50/p95/mean ns,
/// bytes/allocs per op) into the --json report.
inline double MedianMillis(std::string_view name, std::string_view params,
                           int repetitions, const std::function<void()>& fn) {
  AllocPerOp alloc;
  std::vector<double> samples = SampleMillis(repetitions, fn, &alloc);
  BenchJson::Instance().Record(name, params, samples, alloc);
  return samples[samples.size() / 2];
}

/// Parses an optional `--scale N` / `--scale=N` argument: a corpus size
/// multiplier benches apply to their base rung instead of sweeping the
/// built-in ladder. Returns 0 when absent.
inline int64_t ScaleFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg == "--scale" && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.substr(0, 8) == "--scale=") {
      value = argv[i] + 8;
    }
    if (value != nullptr) {
      int64_t scale = std::atoll(value);
      CHECK(scale > 0) << "--scale wants a positive integer, got '" << value
                       << "'";
      return scale;
    }
  }
  return 0;
}

/// Parses a hard-coded bench workload, aborting on a syntax error.
inline twig::TwigQuery MustParse(std::string_view text) {
  StatusOr<twig::TwigQuery> query = twig::ParseQuery(text);
  CHECK(query.ok()) << "bad bench query '" << text
                    << "': " << query.status().message();
  return *std::move(query);
}

/// EvalOptions pinned to one algorithm — the per-algorithm bench rows.
inline twig::EvalOptions EvalWith(twig::Algorithm algorithm) {
  twig::EvalOptions options;
  options.algorithm = algorithm;
  return options;
}

/// One timed evaluation: median milliseconds plus the last run's result.
struct TimedEval {
  double ms = 0;
  twig::QueryResult result;
};

/// Median-of-`repetitions` twig evaluation (one run in smoke mode); the
/// query must succeed. Deduplicates the Evaluate+CHECK+stats pattern the
/// experiment benches all share, and records an "evaluate" row (query +
/// algorithm parameters) into the --json report.
inline TimedEval TimedEvaluate(const index::IndexedDocument& indexed,
                               const twig::TwigQuery& query,
                               const twig::EvalOptions& options = {},
                               int repetitions = 5) {
  TimedEval timed;
  std::string params = "query=" + query.ToString() + " algorithm=" +
                       std::string(twig::AlgorithmName(options.algorithm));
  timed.ms = MedianMillis("evaluate", params, repetitions, [&] {
    StatusOr<twig::QueryResult> result =
        twig::Evaluate(indexed, query, options);
    CHECK(result.ok()) << "bench query failed: " << result.status().message();
    timed.result = *std::move(result);
  });
  return timed;
}

/// Generated corpora wrapped into an index in one call; the approximate
/// node count respects ScaledNodes, so pass the full-size target and the
/// smoke job automatically shrinks it.
inline index::IndexedDocument MakeDblp(uint64_t seed, int64_t approx_nodes) {
  return index::IndexedDocument(
      datagen::GenerateDblpWithApproxNodes(seed, ScaledNodes(approx_nodes)));
}
inline index::IndexedDocument MakeStore(uint64_t seed, int64_t approx_nodes) {
  return index::IndexedDocument(
      datagen::GenerateStoreWithApproxNodes(seed, ScaledNodes(approx_nodes)));
}
inline index::IndexedDocument MakeXmark(uint64_t seed, int64_t approx_nodes) {
  return index::IndexedDocument(
      datagen::GenerateXmarkWithApproxNodes(seed, ScaledNodes(approx_nodes)));
}
inline index::IndexedDocument MakeTreebank(uint64_t seed,
                                           int64_t approx_nodes) {
  return index::IndexedDocument(datagen::GenerateTreebankWithApproxNodes(
      seed, ScaledNodes(approx_nodes)));
}

/// Fixed-width table printer for the experiment reports.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        std::printf(" %-*s |", static_cast<int>(widths[c]),
                    c < row.size() ? row[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

}  // namespace lotusx::bench

#endif  // LOTUSX_BENCH_BENCH_UTIL_H_
