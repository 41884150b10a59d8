// servebench_trace: the traced in-process replay.
//
//   servebench_trace --dir D [--rtt FILE] [--commands N]
//
// Loads <dir>/corpus.xml the way the server does, then replays the
// prepared stream (or its first --commands commands) through
// session::ProtocolInterpreter twice on one thread, untraced and traced,
// command by command (RunReplays). The traced pass records a span around
// every call one module makes into another (the calls named in trace_hooks.h, intercepted at link time)
// and around each command; all spans of one command carry its index.
// Spans stay in memory until the replay ends, are written to
// <dir>/spans.tsv, and are reduced to the per-layer metrics printed as
// one JSON object. --rtt takes the served run's per-command round trips
// ("index rtt_us" lines) and yields the network overhead per verb class.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "autocomplete/completion.h"
#include "index/indexed_document.h"
#include "ranking/ranker.h"
#include "rewrite/rewriter.h"
#include "session/canvas.h"
#include "session/protocol.h"
#include "session/session.h"
#include "stream.h"
#include "trace_hooks.h"
#include "twig/evaluator.h"
#include "twig/plan/physical_plan.h"
#include "xml/dom_builder.h"

namespace servebench {
namespace {

enum SpanKind : uint8_t {
  kCommand,  // ProtocolInterpreter::Execute: the root of every command
  kCompile,
  kCompleteTag,
  kCompleteValue,
  kEvaluate,
  kPlan,
  kExecutePlan,
  kRewrite,
  kRank,
  kNumSpanKinds,
};

constexpr const char* kSpanNames[kNumSpanKinds] = {
    "session.execute", "session.compile",  "autocomplete.complete_tag",
    "autocomplete.complete_value", "twig.evaluate", "twig.plan",
    "twig.execute_plan", "rewrite.rewrite", "ranking.rank"};

constexpr const char* kLayers[] = {"session", "autocomplete", "twig", "rewrite",
                                   "ranking"};
constexpr int kLayerOf[kNumSpanKinds] = {0, 0, 1, 1, 2, 2, 2, 3, 4};

struct Span {
  SpanKind kind = kCommand;
  int32_t parent = -1;
  uint32_t command = 0;
  int64_t start = 0;
  int64_t end = 0;
  // Counts recorded at the boundary; meaning depends on kind (see the
  // __wrap_ functions).
  uint64_t value[5] = {};
};

// The replay is single-threaded, so one global tracer suffices.
struct Tracer {
  bool enabled = false;
  std::vector<Span> spans;
  int32_t current = -1;
  uint32_t command = 0;
  bool in_run = false;
  // Compiled query of each RUN, for the result-cache opportunity.
  std::vector<std::string> run_queries;
};
Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : active_(g_tracer.enabled) {
    if (!active_) return;
    index_ = static_cast<int32_t>(g_tracer.spans.size());
    Span span;
    span.kind = kind;
    span.parent = g_tracer.current;
    span.command = g_tracer.command;
    g_tracer.spans.push_back(span);
    g_tracer.current = index_;
    g_tracer.spans[index_].start = NowNanos();
  }
  ~ScopedSpan() {
    if (!active_) return;
    Span& span = g_tracer.spans[index_];
    span.end = NowNanos();
    g_tracer.current = span.parent;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Set(int slot, uint64_t value) {
    if (active_) g_tracer.spans[index_].value[slot] = value;
  }

 private:
  bool active_;
  int32_t index_ = -1;
};

}  // namespace
}  // namespace servebench

// ---- link-time interposition (see trace_hooks.h) -------------------------
//
// Each __wrap_ function has the Itanium-ABI calling convention of the
// function it stands in for: a const member function is a free function
// whose first parameter is the object pointer.

namespace lotusx {
using servebench::ScopedSpan;
using twig::Match;
using twig::QueryResult;
using twig::TwigQuery;

StatusOr<TwigQuery> RealCompile(const session::Canvas*,
                                std::map<int, int>*) __asm__("__real_" SB_SYM_CANVAS_COMPILE);
StatusOr<TwigQuery> WrapCompile(const session::Canvas* self,
                                std::map<int, int>* mapping) __asm__("__wrap_" SB_SYM_CANVAS_COMPILE);
StatusOr<TwigQuery> WrapCompile(const session::Canvas* self,
                                std::map<int, int>* mapping) {
  ScopedSpan span(servebench::kCompile);
  StatusOr<TwigQuery> query = RealCompile(self, mapping);
  auto& tracer = servebench::g_tracer;
  if (tracer.enabled && tracer.in_run && query.ok()) {
    tracer.run_queries.push_back(query->ToString());
    tracer.in_run = false;  // the first compile of a RUN is the query
  }
  return query;
}

using Candidates = std::vector<autocomplete::Candidate>;
StatusOr<Candidates> RealCompleteTag(const autocomplete::CompletionEngine*,
                                     const TwigQuery&, const autocomplete::TagRequest&)
    __asm__("__real_" SB_SYM_COMPLETE_TAG);
StatusOr<Candidates> WrapCompleteTag(const autocomplete::CompletionEngine* self,
                                     const TwigQuery& query,
                                     const autocomplete::TagRequest& request)
    __asm__("__wrap_" SB_SYM_COMPLETE_TAG);
StatusOr<Candidates> WrapCompleteTag(const autocomplete::CompletionEngine* self,
                                     const TwigQuery& query,
                                     const autocomplete::TagRequest& request) {
  ScopedSpan span(servebench::kCompleteTag);
  StatusOr<Candidates> candidates = RealCompleteTag(self, query, request);
  if (candidates.ok()) span.Set(0, candidates->size());
  return candidates;
}

StatusOr<Candidates> RealCompleteValue(const autocomplete::CompletionEngine*,
                                       const TwigQuery&, twig::QueryNodeId,
                                       std::string_view, size_t, bool)
    __asm__("__real_" SB_SYM_COMPLETE_VALUE);
StatusOr<Candidates> WrapCompleteValue(const autocomplete::CompletionEngine* self,
                                       const TwigQuery& query, twig::QueryNodeId node,
                                       std::string_view prefix, size_t limit,
                                       bool position_aware)
    __asm__("__wrap_" SB_SYM_COMPLETE_VALUE);
StatusOr<Candidates> WrapCompleteValue(const autocomplete::CompletionEngine* self,
                                       const TwigQuery& query, twig::QueryNodeId node,
                                       std::string_view prefix, size_t limit,
                                       bool position_aware) {
  ScopedSpan span(servebench::kCompleteValue);
  StatusOr<Candidates> candidates =
      RealCompleteValue(self, query, node, prefix, limit, position_aware);
  if (candidates.ok()) span.Set(0, candidates->size());
  return candidates;
}

StatusOr<QueryResult> RealEvaluate(const index::IndexedDocument&, const TwigQuery&,
                                   const twig::EvalOptions&)
    __asm__("__real_" SB_SYM_EVALUATE);
StatusOr<QueryResult> WrapEvaluate(const index::IndexedDocument& indexed,
                                   const TwigQuery& query,
                                   const twig::EvalOptions& options)
    __asm__("__wrap_" SB_SYM_EVALUATE);
StatusOr<QueryResult> WrapEvaluate(const index::IndexedDocument& indexed,
                                   const TwigQuery& query,
                                   const twig::EvalOptions& options) {
  ScopedSpan span(servebench::kEvaluate);
  StatusOr<QueryResult> result = RealEvaluate(indexed, query, options);
  if (result.ok()) span.Set(0, result->matches.size());
  return result;
}

StatusOr<twig::plan::PhysicalPlan> RealPlan(const twig::plan::Planner*, const TwigQuery&,
                                            const twig::plan::PlannerHints&)
    __asm__("__real_" SB_SYM_PLAN);
StatusOr<twig::plan::PhysicalPlan> WrapPlan(const twig::plan::Planner* self,
                                            const TwigQuery& query,
                                            const twig::plan::PlannerHints& hints)
    __asm__("__wrap_" SB_SYM_PLAN);
StatusOr<twig::plan::PhysicalPlan> WrapPlan(const twig::plan::Planner* self,
                                            const TwigQuery& query,
                                            const twig::plan::PlannerHints& hints) {
  ScopedSpan span(servebench::kPlan);
  return RealPlan(self, query, hints);
}

StatusOr<QueryResult> RealExecutePlan(const index::IndexedDocument&,
                                      twig::plan::PhysicalPlan*,
                                      const twig::plan::ExecuteOptions&)
    __asm__("__real_" SB_SYM_EXECUTE_PLAN);
StatusOr<QueryResult> WrapExecutePlan(const index::IndexedDocument& indexed,
                                      twig::plan::PhysicalPlan* plan,
                                      const twig::plan::ExecuteOptions& options)
    __asm__("__wrap_" SB_SYM_EXECUTE_PLAN);
StatusOr<QueryResult> WrapExecutePlan(const index::IndexedDocument& indexed,
                                      twig::plan::PhysicalPlan* plan,
                                      const twig::plan::ExecuteOptions& options) {
  ScopedSpan span(servebench::kExecutePlan);
  StatusOr<QueryResult> result = RealExecutePlan(indexed, plan, options);
  if (result.ok()) {
    const twig::EvalStats& stats = result->stats;
    span.Set(0, stats.candidates_scanned);
    span.Set(1, stats.intermediate_tuples);
    span.Set(2, stats.matches);
    span.Set(3, stats.posting_blocks_decoded);
    span.Set(4, stats.posting_blocks_skipped);
  }
  return result;
}

StatusOr<rewrite::RewriteOutcome> RealRewrite(const rewrite::Rewriter*, const TwigQuery&,
                                              const rewrite::RewriteOptions&)
    __asm__("__real_" SB_SYM_REWRITE);
StatusOr<rewrite::RewriteOutcome> WrapRewrite(const rewrite::Rewriter* self,
                                              const TwigQuery& query,
                                              const rewrite::RewriteOptions& options)
    __asm__("__wrap_" SB_SYM_REWRITE);
StatusOr<rewrite::RewriteOutcome> WrapRewrite(const rewrite::Rewriter* self,
                                              const TwigQuery& query,
                                              const rewrite::RewriteOptions& options) {
  ScopedSpan span(servebench::kRewrite);
  StatusOr<rewrite::RewriteOutcome> outcome = RealRewrite(self, query, options);
  span.Set(0, outcome.ok() && !outcome->result.matches.empty() ? 1 : 0);
  return outcome;
}

std::vector<ranking::RankedResult> RealRank(const ranking::Ranker*, const TwigQuery&,
                                            const std::vector<Match>&,
                                            const ranking::RankingOptions&)
    __asm__("__real_" SB_SYM_RANK);
std::vector<ranking::RankedResult> WrapRank(const ranking::Ranker* self,
                                            const TwigQuery& query,
                                            const std::vector<Match>& matches,
                                            const ranking::RankingOptions& options)
    __asm__("__wrap_" SB_SYM_RANK);
std::vector<ranking::RankedResult> WrapRank(const ranking::Ranker* self,
                                            const TwigQuery& query,
                                            const std::vector<Match>& matches,
                                            const ranking::RankingOptions& options) {
  ScopedSpan span(servebench::kRank);
  std::vector<ranking::RankedResult> ranked = RealRank(self, query, matches, options);
  span.Set(0, matches.size());
  span.Set(1, ranked.size());
  return ranked;
}

}  // namespace lotusx

namespace servebench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  // A metric with no samples on this workload is reported as 0, with why.
  void AddOrZero(const std::string& name, bool has_samples, double value,
                 const char* unit, const std::string& why_zero) {
    if (!has_samples) {
      std::fprintf(stderr, "servebench_trace: %s = 0: %s\n", name.c_str(),
                   why_zero.c_str());
      value = 0;
    }
    Add(name, value, unit);
  }
  void Print(size_t commands, size_t mismatches, double repeat_share) const {
    std::printf("{\"commands\": %zu, \"mismatches\": %zu, \"repeat_share\": %.6f, "
                "\"metrics\": {",
                commands, mismatches, repeat_share);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

struct Replay {
  // Per command: time inside ProtocolInterpreter::Execute.
  std::vector<double> execute_us;
  size_t mismatches = 0;

  double total_us() const {
    double sum = 0;
    for (double us : execute_us) sum += us;
    return sum;
  }
};

// Replays the stream twice at once, on two sessions: each command runs
// untraced on one and traced on the other before the next command, in
// alternating order (the second run of a command finds its data in
// cache). Both passes thus see the same moments of the host, and
// their ratio is the tracing overhead.
void RunReplays(const lotusx::index::IndexedDocument& indexed, const Stream& stream,
                Replay* untraced, Replay* traced) {
  lotusx::session::Session sessions[2] = {lotusx::session::Session(indexed),
                                          lotusx::session::Session(indexed)};
  lotusx::session::ProtocolInterpreter interpreters[2] = {
      lotusx::session::ProtocolInterpreter(&sessions[0]),
      lotusx::session::ProtocolInterpreter(&sessions[1])};
  Replay* replays[2] = {untraced, traced};
  for (size_t i = 0; i < stream.commands.size(); ++i) {
    const Command& expected = stream.commands[i];
    for (int k = 0; k < 2; ++k) {
      const int pass = static_cast<int>(i + k) % 2;  // 0 untraced, 1 traced
      g_tracer.enabled = pass == 1;
      g_tracer.command = static_cast<uint32_t>(i);
      g_tracer.in_run = g_tracer.enabled && ClassOf(expected.line) == VerbClass::kRun;
      lotusx::StatusOr<std::string> response = lotusx::Status::Internal("unset");
      const int64_t begin = NowNanos();
      {
        ScopedSpan span(kCommand);
        response = interpreters[pass].Execute(expected.line);
      }
      replays[pass]->execute_us.push_back(static_cast<double>(NowNanos() - begin) / 1e3);
      if (response.ok() != expected.ok ||
          (response.ok() && *response != expected.payload)) {
        ++replays[pass]->mismatches;
      }
    }
  }
  g_tracer.enabled = false;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

void WriteSpans(const std::string& path) {
  std::ofstream out(path);
  out << "command\tspan\tparent\tname\tstart_ns\tend_ns\tv0\tv1\tv2\tv3\tv4\n";
  for (size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    out << s.command << "\t" << i << "\t" << s.parent << "\t" << kSpanNames[s.kind]
        << "\t" << s.start << "\t" << s.end;
    for (uint64_t v : s.value) out << "\t" << v;
    out << "\n";
  }
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  std::string dir, rtt_path;
  size_t max_commands = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--dir") {
      dir = argv[i + 1];
    } else if (flag == "--rtt") {
      rtt_path = argv[i + 1];
    } else if (flag == "--commands") {
      max_commands = std::strtoull(argv[i + 1], nullptr, 10);
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (dir.empty()) Fail("usage: servebench_trace --dir D [--rtt F] [--commands N]");
  Stream stream = ReadStream(StreamPath(dir));
  // Only a prefix is replayed, when asked: the layer figures are medians
  // and means that a prefix already settles, and a full replay of a long
  // stream, twice, would dominate the run.
  const bool truncated = max_commands > 0 && max_commands < stream.commands.size();
  if (truncated) stream.commands.resize(max_commands);
  std::vector<VerbClass> classes;
  for (const Command& command : stream.commands) classes.push_back(ClassOf(command.line));

  // Load spans: the calls the server makes before it listens.
  int64_t start = NowNanos();
  auto parsed = lotusx::xml::ParseDocumentFile(dir + "/corpus.xml");
  const double parse_s = Seconds(NowNanos() - start);
  if (!parsed.ok()) Fail("corpus: " + parsed.status().ToString());
  start = NowNanos();
  const lotusx::index::IndexedDocument indexed(*std::move(parsed));
  const double build_s = Seconds(NowNanos() - start);

  Replay untraced, traced;
  RunReplays(indexed, stream, &untraced, &traced);
  WriteSpans(dir + "/spans.tsv");
  const std::vector<Span>& spans = g_tracer.spans;

  // Self time: a span's duration minus that of its direct children.
  std::vector<double> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += static_cast<double>(s.end - s.start);
  }
  auto inside = [&](int32_t index, SpanKind kind) {
    for (int32_t p = spans[index].parent; p >= 0; p = spans[p].parent) {
      if (spans[p].kind == kind) return true;
    }
    return false;
  };
  std::vector<double> duration_us[kNumSpanKinds];
  double layer_self_ns[std::size(kLayers)] = {};
  double root_ns = 0, layer_ns = 0;
  std::vector<double> edit_us, candidates;
  size_t runs = 0;
  double run_evaluations = 0, run_work[5] = {};
  double rewrite_evaluations = 0, rewrite_empty = 0, recovered = 0;
  double scored = 0, kept = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = static_cast<double>(s.end - s.start);
    duration_us[s.kind].push_back(ns / 1e3);
    layer_self_ns[kLayerOf[s.kind]] += ns - child_ns[i];
    if (s.parent >= 0 && spans[s.parent].kind == kCommand) layer_ns += ns;
    const bool in_run = classes[s.command] == VerbClass::kRun;
    switch (s.kind) {
      case kCommand:
        root_ns += ns;
        runs += in_run;
        if (classes[s.command] == VerbClass::kEdit) edit_us.push_back(ns / 1e3);
        break;
      case kCompleteTag:
      case kCompleteValue:
        candidates.push_back(static_cast<double>(s.value[0]));
        break;
      case kEvaluate:
        run_evaluations += in_run;
        if (inside(static_cast<int32_t>(i), kRewrite)) {
          ++rewrite_evaluations;
          rewrite_empty += s.value[0] == 0;
        }
        break;
      case kExecutePlan:
        if (in_run) {
          for (int k = 0; k < 5; ++k) run_work[k] += static_cast<double>(s.value[k]);
        }
        break;
      case kRewrite:
        recovered += static_cast<double>(s.value[0]);
        break;
      case kRank:
        scored += static_cast<double>(s.value[0]);
        kept += static_cast<double>(s.value[1]);
        break;
      default:
        break;
    }
  }
  std::vector<double> suggest_us = duration_us[kCompleteTag];
  suggest_us.insert(suggest_us.end(), duration_us[kCompleteValue].begin(),
                    duration_us[kCompleteValue].end());
  const double rewrites = static_cast<double>(duration_us[kRewrite].size());
  const double ranks = static_cast<double>(duration_us[kRank].size());
  const double per_run = runs ? 1.0 / static_cast<double>(runs) : 0;

  Report report;
  // net: client round trip minus in-process execute time, per verb class.
  std::vector<double> overhead_us[3];
  if (!rtt_path.empty()) {
    std::ifstream in(rtt_path);
    size_t index = 0;
    double rtt_us = 0;
    while (in >> index >> rtt_us) {
      if (index >= stream.commands.size()) {
        if (truncated) break;  // the lines come in command order
        Fail("rtt file does not match the stream");
      }
      overhead_us[static_cast<int>(classes[index])].push_back(
          rtt_us - untraced.execute_us[index]);
    }
  }
  for (VerbClass verb_class : {VerbClass::kSuggest, VerbClass::kEdit, VerbClass::kRun}) {
    std::vector<double>& samples = overhead_us[static_cast<int>(verb_class)];
    report.AddOrZero(std::string("net.overhead_us.") + ClassName(verb_class),
                     !samples.empty(), Median(samples), "us",
                     "no served round trips of this verb class");
  }
  double frame_bytes = 0;
  for (const Command& command : stream.commands) {
    frame_bytes += static_cast<double>(
        std::string(command.ok ? "OK " : "ERR ").size() +
        std::to_string(command.payload.size()).size() + 1 + command.payload.size() + 1);
  }
  report.Add("net.response_bytes",
             frame_bytes / static_cast<double>(stream.commands.size()), "bytes");

  report.AddOrZero("session.edit_us", !edit_us.empty(), Median(edit_us), "us",
                   "no edit commands");
  report.AddOrZero("session.compile_us", !duration_us[kCompile].empty(),
                   Median(duration_us[kCompile]), "us", "no Canvas::Compile calls");
  report.AddOrZero("autocomplete.suggest_us", !suggest_us.empty(), Median(suggest_us),
                   "us", "no completion calls");
  report.AddOrZero("autocomplete.candidates", !candidates.empty(), Mean(candidates),
                   "count", "no completion calls");

  const bool evaluated = !duration_us[kExecutePlan].empty();
  report.AddOrZero("twig.exec_ms", evaluated, Median(duration_us[kExecutePlan]) / 1e3,
                   "ms", "no plan::ExecutePlan calls");
  report.AddOrZero("twig.plan_us", !duration_us[kPlan].empty(), Median(duration_us[kPlan]),
                   "us", "no Planner::Plan calls");
  const char* kWorkNames[5] = {"twig.scanned", "twig.intermediate_tuples", "twig.matches",
                               "twig.blocks_decoded", "twig.blocks_skipped"};
  for (int k = 0; k < 5; ++k) {
    report.AddOrZero(kWorkNames[k], runs > 0, run_work[k] * per_run, "count",
                     "no RUN commands");
  }
  const double blocks = run_work[3] + run_work[4];
  report.AddOrZero("twig.skip_ratio", blocks > 0, run_work[4] / std::max(1.0, blocks),
                   "ratio", "RUNs touched no posting blocks");
  report.AddOrZero("twig.evaluations_per_run", runs > 0, run_evaluations * per_run, "count",
                   "no RUN commands");

  const std::string no_rewrite = "no RUN entered the rewriter on this workload";
  report.AddOrZero("rewrite.ms", rewrites > 0, Median(duration_us[kRewrite]) / 1e3, "ms",
                   no_rewrite);
  report.AddOrZero("rewrite.evaluations", rewrites > 0,
                   rewrite_evaluations / std::max(1.0, rewrites), "count", no_rewrite);
  report.AddOrZero("rewrite.empty_eval_ratio", rewrite_evaluations > 0,
                   rewrite_empty / std::max(1.0, rewrite_evaluations), "ratio", no_rewrite);
  report.AddOrZero("rewrite.recovered_ratio", rewrites > 0,
                   recovered / std::max(1.0, rewrites), "ratio", no_rewrite);

  report.AddOrZero("ranking.rank_ms", ranks > 0, Median(duration_us[kRank]) / 1e3, "ms",
                   "no Ranker::Rank calls");
  report.AddOrZero("ranking.scored", ranks > 0, scored / std::max(1.0, ranks), "count",
                   "no Ranker::Rank calls");
  report.AddOrZero("ranking.kept", ranks > 0, kept / std::max(1.0, ranks), "count",
                   "no Ranker::Rank calls");
  report.AddOrZero("ranking.kept_ratio", scored > 0, kept / std::max(1.0, scored), "ratio",
                   "no match reached Ranker::Rank");

  const lotusx::index::IndexBuildStats& build = indexed.build_stats();
  report.Add("xml.parse_s", parse_s, "s");
  report.Add("index.build_s", build_s, "s");
  const std::pair<const char*, double> components[] = {
      {"containment", build.containment_ms}, {"dewey", build.dewey_ms},
      {"transducer", build.transducer_ms},   {"extended_dewey", build.extended_dewey_ms},
      {"dataguide", build.dataguide_ms},     {"tag_streams", build.tag_streams_ms},
      {"term_index", build.term_index_ms},   {"tag_trie", build.tag_trie_ms}};
  for (const auto& [component, ms] : components) {
    report.Add(std::string("index.build_s.") + component, ms / 1e3, "s");
  }
  report.Add("index.resident_mb", static_cast<double>(build.total_bytes()) / 1e6, "MB");

  const double untraced_us = untraced.total_us();
  report.Add("trace.overhead", traced.total_us() / untraced_us - 1, "ratio");
  // Time inside the calls the command made into other modules, over the
  // untraced Execute time: work that escapes the hooked calls lowers it.
  report.Add("trace.coverage", layer_ns / 1e3 / std::max(1.0, untraced_us), "ratio");
  for (size_t layer = 0; layer < std::size(kLayers); ++layer) {
    report.Add(std::string(kLayers[layer]) + ".self_share",
               layer_self_ns[layer] / std::max(1.0, root_ns), "ratio");
  }
  // The result-cache opportunity: RUNs whose compiled query already ran.
  std::set<std::string> distinct(g_tracer.run_queries.begin(), g_tracer.run_queries.end());
  const double repeat_share =
      1.0 - static_cast<double>(distinct.size()) /
                static_cast<double>(std::max<size_t>(1, g_tracer.run_queries.size()));
  report.Print(stream.commands.size(), untraced.mismatches + traced.mismatches,
               repeat_share);
  return 0;
}
