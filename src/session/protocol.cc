#include "session/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>

#include "common/client_registry.h"
#include "common/coding.h"
#include "common/metrics.h"
#include "common/process_metrics.h"
#include "common/profiler.h"
#include "common/statement_store.h"
#include "common/string_util.h"
#include "common/trace_store.h"
#include "index/document_stats.h"
#include "session/canvas_io.h"
#include "twig/fingerprint.h"
#include "twig/query_from_example.h"
#include "twig/query_parser.h"
#include "session/svg_export.h"
#include "xml/writer.h"

namespace lotusx::session {

namespace {

constexpr std::string_view kHelp =
    "ADD <x> <y> [tag] | TAG <id> <tag> | EDGE <from> <to> </|//> |\n"
    "TYPE <anchor> </|//> [prefix] | ACCEPT <n> [x y] | TYPEVAL <id> [prefix] |\n"
    "VALUE <id> =|~ <text> | VALUE <id> NONE | ORDERED <id> ON|OFF |\n"
    "OUTPUT <id> | MOVE <id> <x> <y> | REMOVE <id> | QUERY | RUN |\n"
    "FIND <keywords> | STATS [DOC] | EXPLAIN | XPATH | XQUERY | SVG [file] |\n"
    "SAVECANVAS <file> | LOADCANVAS <file> | HISTORY [prefix] |\n"
    "EXAMPLE <node#> | PARSE <query> |\n"
    "SLOWLOG GET [n]|LEN|RESET | TRACE LAST [n]|EXPORT [id] | CLIENTS |\n"
    "STATEMENTS TOP [n]|BY-FINGERPRINT <fp>|RESET | PROFILE CPU|WALL [ms] |\n"
    "CHECKPOINT | UNDO | SHOW | RESET | HELP";

StatusOr<int> ParseInt(std::string_view token) {
  int value = 0;
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("expected integer, got '" +
                                   std::string(token) + "'");
  }
  return value;
}

StatusOr<double> ParseDouble(std::string_view token) {
  // std::from_chars for double is not universally available; strtod via
  // a bounded copy keeps this dependency-free. The protocol grammar is
  // deliberately stricter than strtod's: hex floats are rejected, and so
  // are the non-finite spellings (nan/inf) — a NaN coordinate makes every
  // x/y comparison false, which silently scrambles ChildrenLeftToRight
  // and with it the child order of every order-sensitive query.
  std::string copy(token);
  if (copy.find('x') != std::string::npos ||
      copy.find('X') != std::string::npos) {
    return Status::InvalidArgument("expected decimal number, got '" + copy +
                                   "'");
  }
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    return Status::InvalidArgument("expected number, got '" + copy + "'");
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("number must be finite, got '" + copy +
                                   "'");
  }
  return value;
}

// The raw remainder of `line` after its first `n` space-separated tokens,
// with exactly one separator space consumed. Whitespace inside the
// remainder is preserved byte-for-byte — tokenizing with SplitSkipEmpty
// and re-joining would collapse runs of spaces, making predicates like
// `a  b` inexpressible (and unmatchable) over the protocol.
std::string_view RawTail(std::string_view line, size_t n) {
  size_t pos = 0;
  // Leading whitespace is insignificant, mirroring TrimAscii + split.
  while (pos < line.size() && IsXmlWhitespace(line[pos])) ++pos;
  for (size_t token = 0; token < n; ++token) {
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (token + 1 < n) {
      while (pos < line.size() && line[pos] == ' ') ++pos;
    }
  }
  if (pos < line.size() && line[pos] == ' ') ++pos;  // the one separator
  return line.substr(pos);
}

StatusOr<twig::Axis> ParseAxis(std::string_view token) {
  if (token == "/") return twig::Axis::kChild;
  if (token == "//") return twig::Axis::kDescendant;
  return Status::InvalidArgument("axis must be '/' or '//'");
}

std::string RenderCandidates(
    const std::vector<autocomplete::Candidate>& candidates) {
  if (candidates.empty()) return "(no candidates)";
  std::ostringstream out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (i > 0) out << "\n";
    out << (i + 1) << ". " << candidates[i].text << " ("
        << candidates[i].frequency << ")";
  }
  return out.str();
}

}  // namespace

StatusOr<std::string> ProtocolInterpreter::Execute(std::string_view line) {
  LOTUSX_ASSIGN_OR_RETURN(std::string response, ExecuteCommand(line));
  // Framing normalization at the single exit point: a response payload
  // never carries a trailing newline (interior newlines separate the
  // lines of multi-line payloads). The transport owns termination — the
  // REPL appends one "\n", the TCP server wraps payloads in OK/ERR
  // frames — so pipelined responses frame deterministically regardless
  // of which verb produced them.
  while (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

StatusOr<std::string> ProtocolInterpreter::ExecuteCommand(
    std::string_view line) {
  std::vector<std::string> tokens;
  for (std::string& piece : SplitSkipEmpty(std::string(TrimAscii(line)), ' ')) {
    tokens.push_back(std::move(piece));
  }
  if (tokens.empty()) return std::string();
  std::string verb = ToLowerAscii(tokens[0]);
  Canvas& canvas = session_->canvas();

  auto rest_text = [&](size_t from) {
    std::string text;
    for (size_t i = from; i < tokens.size(); ++i) {
      if (i > from) text += ' ';
      text += tokens[i];
    }
    return text;
  };

  if (verb == "help") return std::string(kHelp);

  if (verb == "add") {
    if (tokens.size() < 3 || tokens.size() > 4) {
      return Status::InvalidArgument("usage: ADD <x> <y> [tag]");
    }
    LOTUSX_ASSIGN_OR_RETURN(double x, ParseDouble(tokens[1]));
    LOTUSX_ASSIGN_OR_RETURN(double y, ParseDouble(tokens[2]));
    CanvasNodeId id =
        canvas.AddNode(x, y, tokens.size() == 4 ? tokens[3] : "");
    return "node " + std::to_string(id);
  }

  if (verb == "tag") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("usage: TAG <id> <tag>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    LOTUSX_RETURN_IF_ERROR(canvas.SetTag(id, tokens[2]));
    return std::string("ok");
  }

  if (verb == "edge") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument("usage: EDGE <from> <to> </|//>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int from, ParseInt(tokens[1]));
    LOTUSX_ASSIGN_OR_RETURN(int to, ParseInt(tokens[2]));
    LOTUSX_ASSIGN_OR_RETURN(twig::Axis axis, ParseAxis(tokens[3]));
    LOTUSX_RETURN_IF_ERROR(canvas.Connect(from, to, axis));
    return std::string("ok");
  }

  if (verb == "type") {
    if (tokens.size() < 3 || tokens.size() > 4) {
      return Status::InvalidArgument("usage: TYPE <anchor> </|//> [prefix]");
    }
    LOTUSX_ASSIGN_OR_RETURN(int anchor, ParseInt(tokens[1]));
    LOTUSX_ASSIGN_OR_RETURN(twig::Axis axis, ParseAxis(tokens[2]));
    std::string prefix = tokens.size() == 4 ? tokens[3] : "";
    LOTUSX_ASSIGN_OR_RETURN(std::vector<autocomplete::Candidate> candidates,
                            session_->SuggestTags(anchor, axis, prefix));
    last_type_ = TypeContext{anchor, axis, candidates};
    return RenderCandidates(candidates);
  }

  if (verb == "accept") {
    if (tokens.size() != 2 && tokens.size() != 4) {
      return Status::InvalidArgument("usage: ACCEPT <n> [x y]");
    }
    if (!last_type_.has_value()) {
      return Status::FailedPrecondition("no TYPE suggestions to accept");
    }
    LOTUSX_ASSIGN_OR_RETURN(int n, ParseInt(tokens[1]));
    if (n < 1 || static_cast<size_t>(n) > last_type_->candidates.size()) {
      return Status::OutOfRange(
          "candidate " + std::to_string(n) + " of " +
          std::to_string(last_type_->candidates.size()));
    }
    double x = 0;
    double y = 0;
    if (tokens.size() == 4) {
      LOTUSX_ASSIGN_OR_RETURN(x, ParseDouble(tokens[2]));
      LOTUSX_ASSIGN_OR_RETURN(y, ParseDouble(tokens[3]));
    } else if (last_type_->anchor != 0) {
      // Auto-placement: below the anchor, offset by its child count.
      const CanvasNode* anchor = canvas.FindNode(last_type_->anchor);
      if (anchor != nullptr) {
        x = anchor->x +
            130.0 * static_cast<double>(
                        canvas.ChildrenLeftToRight(anchor->id).size());
        y = anchor->y + 130.0;
      }
    }
    // Copy out of the context before reset() destroys it.
    std::string tag = last_type_->candidates[static_cast<size_t>(n - 1)].text;
    CanvasNodeId anchor = last_type_->anchor;
    twig::Axis axis = last_type_->axis;
    last_type_.reset();  // one acceptance per TYPE
    CanvasNodeId id = canvas.AddNode(x, y, tag);
    if (anchor != 0) {
      LOTUSX_RETURN_IF_ERROR(canvas.Connect(anchor, id, axis));
    }
    return "node " + std::to_string(id) + " (" + tag + ")";
  }

  if (verb == "typeval") {
    if (tokens.size() < 2 || tokens.size() > 3) {
      return Status::InvalidArgument("usage: TYPEVAL <id> [prefix]");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    std::string prefix = tokens.size() == 3 ? tokens[2] : "";
    LOTUSX_ASSIGN_OR_RETURN(std::vector<autocomplete::Candidate> candidates,
                            session_->SuggestValues(id, prefix));
    return RenderCandidates(candidates);
  }

  if (verb == "value") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument(
          "usage: VALUE <id> =|~ <text> | VALUE <id> NONE");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    if (ToLowerAscii(tokens[2]) == "none") {
      LOTUSX_RETURN_IF_ERROR(canvas.SetPredicate(id, twig::ValuePredicate{}));
      return std::string("ok");
    }
    twig::ValuePredicate predicate;
    if (tokens[2] == "=") {
      predicate.op = twig::ValuePredicate::Op::kEquals;
    } else if (tokens[2] == "~") {
      predicate.op = twig::ValuePredicate::Op::kContains;
    } else {
      return Status::InvalidArgument("value operator must be '=' or '~'");
    }
    // Parse the predicate from the raw line, not the token list: predicate
    // text is matched verbatim against document values, so consecutive /
    // leading / trailing spaces must survive the round trip.
    predicate.text = std::string(RawTail(line, 3));
    if (predicate.text.empty()) {
      return Status::InvalidArgument("missing predicate text");
    }
    LOTUSX_RETURN_IF_ERROR(canvas.SetPredicate(id, std::move(predicate)));
    return std::string("ok");
  }

  if (verb == "ordered") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("usage: ORDERED <id> ON|OFF");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    std::string mode = ToLowerAscii(tokens[2]);
    if (mode != "on" && mode != "off") {
      return Status::InvalidArgument("expected ON or OFF");
    }
    LOTUSX_RETURN_IF_ERROR(canvas.SetOrdered(id, mode == "on"));
    return std::string("ok");
  }

  if (verb == "output") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: OUTPUT <id>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    LOTUSX_RETURN_IF_ERROR(canvas.SetOutput(id));
    return std::string("ok");
  }

  if (verb == "move") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument("usage: MOVE <id> <x> <y>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    LOTUSX_ASSIGN_OR_RETURN(double x, ParseDouble(tokens[2]));
    LOTUSX_ASSIGN_OR_RETURN(double y, ParseDouble(tokens[3]));
    LOTUSX_RETURN_IF_ERROR(canvas.MoveNode(id, x, y));
    return std::string("ok");
  }

  if (verb == "remove") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: REMOVE <id>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int id, ParseInt(tokens[1]));
    LOTUSX_RETURN_IF_ERROR(canvas.RemoveNode(id));
    return std::string("ok");
  }

  if (verb == "example") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: EXAMPLE <node#>");
    }
    LOTUSX_ASSIGN_OR_RETURN(int node, ParseInt(tokens[1]));
    LOTUSX_ASSIGN_OR_RETURN(
        twig::TwigQuery query,
        twig::QueryFromExample(session_->indexed(),
                               static_cast<xml::NodeId>(node)));
    // Destructive replacement: checkpoint only once the new canvas is
    // certain, so UNDO restores the drawing a stray EXAMPLE wiped out
    // (and a failed command leaves the history stack untouched).
    session_->Checkpoint();
    canvas = CanvasFromQuery(query);
    return "canvas loaded from node#" + std::to_string(node) + ": " +
           query.ToString();
  }

  if (verb == "parse") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("usage: PARSE <query>");
    }
    LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query,
                            twig::ParseQuery(rest_text(1)));
    // Checkpoint before replacing (see EXAMPLE): PARSE must be undoable.
    session_->Checkpoint();
    canvas = CanvasFromQuery(query);
    return "canvas loaded: " + query.ToString();
  }

  if (verb == "savecanvas") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: SAVECANVAS <file>");
    }
    LOTUSX_RETURN_IF_ERROR(SaveCanvasToFile(canvas, tokens[1]));
    return "saved " + tokens[1];
  }

  if (verb == "loadcanvas") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument("usage: LOADCANVAS <file>");
    }
    LOTUSX_ASSIGN_OR_RETURN(Canvas loaded, LoadCanvasFromFile(tokens[1]));
    // Checkpoint before replacing (see EXAMPLE): LOADCANVAS must be
    // undoable.
    session_->Checkpoint();
    canvas = std::move(loaded);
    return std::string("ok");
  }

  if (verb == "history") {
    std::string prefix = tokens.size() >= 2 ? tokens[1] : "";
    std::vector<std::string> queries = session_->QueryHistory(prefix);
    if (queries.empty()) return std::string("(no history)");
    std::ostringstream out;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (i > 0) out << "\n";
      out << (i + 1) << ". " << queries[i];
    }
    return out.str();
  }

  if (verb == "stats") {
    // STATS DOC renders document statistics; bare STATS dumps the
    // process-wide metrics registry (Prometheus text exposition).
    if (tokens.size() >= 2 && ToLowerAscii(tokens[1]) == "doc") {
      return index::RenderDocumentStats(
          index::ComputeDocumentStats(session_->indexed()));
    }
    if (tokens.size() >= 2) {
      return Status::InvalidArgument("usage: STATS [DOC]");
    }
    metrics::UpdateProcessMetrics();
    return metrics::Registry::Default().RenderText();
  }

  if (verb == "slowlog") {
    // Redis-style slow-query history over the bounded ring fed by
    // request root traces (see common/trace_store.h).
    const std::string sub =
        tokens.size() >= 2 ? ToLowerAscii(tokens[1]) : "get";
    if (sub == "get" && tokens.size() <= 3) {
      size_t count = 10;
      if (tokens.size() == 3) {
        LOTUSX_ASSIGN_OR_RETURN(int parsed, ParseInt(tokens[2]));
        if (parsed < 0) {
          return Status::InvalidArgument("count must be >= 0");
        }
        count = static_cast<size_t>(parsed);
      }
      return trace::RenderSlowLogText(trace::SlowRing().Last(count));
    }
    if (sub == "len" && tokens.size() == 2) {
      return std::to_string(trace::SlowRing().Len());
    }
    if (sub == "reset" && tokens.size() == 2) {
      trace::SlowRing().Reset();
      return std::string("ok");
    }
    return Status::InvalidArgument("usage: SLOWLOG GET [n] | LEN | RESET");
  }

  if (verb == "trace") {
    if (tokens.size() >= 2) {
      const std::string sub = ToLowerAscii(tokens[1]);
      if (sub == "last" && tokens.size() <= 3) {
        size_t count = 5;
        if (tokens.size() == 3) {
          LOTUSX_ASSIGN_OR_RETURN(int parsed, ParseInt(tokens[2]));
          if (parsed <= 0) {
            return Status::InvalidArgument("count must be > 0");
          }
          count = static_cast<size_t>(parsed);
        }
        return trace::RenderTraceText(trace::TraceRing().Last(count));
      }
      if (sub == "export" && tokens.size() <= 3) {
        // Chrome trace-event JSON (open in Perfetto / chrome://tracing):
        // one retained trace by ID, or the whole ring without one.
        if (tokens.size() == 3) {
          const uint64_t trace_id = trace::ParseTraceId(tokens[2]);
          if (trace_id == 0) {
            return Status::InvalidArgument("bad trace id '" + tokens[2] + "'");
          }
          std::shared_ptr<const trace::RequestRecord> found =
              trace::TraceRing().Find(trace_id);
          if (found == nullptr) {
            return Status::NotFound("trace " + tokens[2] +
                                    " not retained (sampled out or evicted)");
          }
          return trace::ChromeTraceJson({std::move(found)});
        }
        trace::RequestRing& ring = trace::TraceRing();
        return trace::ChromeTraceJson(ring.Last(ring.Len()));
      }
    }
    return Status::InvalidArgument(
        "usage: TRACE LAST [n] | TRACE EXPORT [id]");
  }

  if (verb == "clients") {
    if (tokens.size() != 1) return Status::InvalidArgument("usage: CLIENTS");
    return RenderClientsText(ClientRegistry::Default().Snapshot());
  }

  if (verb == "statements") {
    // pg_stat_statements over the wire: per-query-shape aggregates from
    // the statement store (common/statement_store.h), keyed by the
    // fingerprints SLOWLOG and CLIENTS also carry.
    const std::string sub =
        tokens.size() >= 2 ? ToLowerAscii(tokens[1]) : "top";
    if (sub == "top" && tokens.size() <= 3) {
      size_t count = 10;
      if (tokens.size() == 3) {
        LOTUSX_ASSIGN_OR_RETURN(int parsed, ParseInt(tokens[2]));
        if (parsed <= 0) return Status::InvalidArgument("count must be > 0");
        count = static_cast<size_t>(parsed);
      }
      return stmt::RenderStatementsText(
          stmt::StatementStore::Default().Top(count));
    }
    if (sub == "by-fingerprint" && tokens.size() == 3) {
      const uint64_t fingerprint = twig::ParseFingerprint(tokens[2]);
      if (fingerprint == 0) {
        return Status::InvalidArgument("bad fingerprint '" + tokens[2] + "'");
      }
      std::optional<stmt::StatementSnapshot> found =
          stmt::StatementStore::Default().Find(fingerprint);
      if (!found.has_value()) {
        return Status::NotFound("statement " + tokens[2] +
                                " not tracked (never seen or evicted)");
      }
      return stmt::RenderStatementsText({*std::move(found)});
    }
    if (sub == "reset" && tokens.size() == 2) {
      stmt::StatementStore::Default().Reset();
      return std::string("ok");
    }
    return Status::InvalidArgument(
        "usage: STATEMENTS TOP [n] | BY-FINGERPRINT <fp> | RESET");
  }

  if (verb == "profile") {
    // On-demand sampling profile, rendered as collapsed stacks
    // (flamegraph.pl input). Blocks this command's worker for the
    // window; the server keeps serving on its other workers.
    if (tokens.size() < 2 || tokens.size() > 3) {
      return Status::InvalidArgument("usage: PROFILE CPU|WALL [ms]");
    }
    const std::string sub = ToLowerAscii(tokens[1]);
    prof::Mode mode;
    if (sub == "cpu") {
      mode = prof::Mode::kCpu;
    } else if (sub == "wall") {
      mode = prof::Mode::kWall;
    } else {
      return Status::InvalidArgument("usage: PROFILE CPU|WALL [ms]");
    }
    double duration_ms = 200;
    if (tokens.size() == 3) {
      LOTUSX_ASSIGN_OR_RETURN(int parsed, ParseInt(tokens[2]));
      if (parsed <= 0) return Status::InvalidArgument("ms must be > 0");
      duration_ms = parsed;
    }
    LOTUSX_ASSIGN_OR_RETURN(prof::ProfileResult result,
                            prof::Collect(mode, duration_ms));
    if (result.collapsed.empty()) {
      return std::string("(no samples: process idle during window)");
    }
    return prof::RenderCollapsed(result);
  }

  if (verb == "find") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("usage: FIND <keywords>");
    }
    LOTUSX_ASSIGN_OR_RETURN(std::vector<keyword::KeywordHit> hits,
                            session_->FindKeywords(rest_text(1)));
    if (hits.empty()) return std::string("(no results)");
    std::ostringstream out;
    for (size_t i = 0; i < hits.size() && i < 10; ++i) {
      out << (i + 1) << ". node#" << hits[i].node << " score="
          << hits[i].score << "\n";
    }
    return out.str();
  }

  if (verb == "explain") {
    return session_->ExplainCanvas();
  }

  if (verb == "xpath") {
    return session_->CanvasToXPath();
  }

  if (verb == "xquery") {
    return session_->CanvasToXQuery();
  }

  if (verb == "svg") {
    std::string svg = RenderCanvasSvg(canvas);
    if (tokens.size() >= 2) {
      LOTUSX_RETURN_IF_ERROR(WriteStringToFile(tokens[1], svg));
      return "wrote " + tokens[1] + " (" + std::to_string(svg.size()) +
             " bytes)";
    }
    return svg;
  }

  if (verb == "query") {
    LOTUSX_ASSIGN_OR_RETURN(twig::TwigQuery query, canvas.Compile());
    return query.ToString();
  }

  if (verb == "run") {
    LOTUSX_ASSIGN_OR_RETURN(SearchResult response, session_->Run());
    std::ostringstream out;
    out << "query: " << response.executed_query.ToString() << "\n";
    if (!response.rewrites_applied.empty()) {
      out << "rewritten (penalty " << response.rewrite_penalty << "):";
      for (const std::string& step : response.rewrites_applied) {
        out << " [" << step << "]";
      }
      out << "\n";
    }
    out << "algorithm: " << response.stats.algorithm << ", matches: "
        << response.stats.matches << "\n";
    size_t shown = 0;
    for (const ranking::RankedResult& result : response.results) {
      if (shown++ >= 10) break;
      out << shown << ". score=" << result.score << " ";
      // One-line snippet of the output element.
      // (Session holds the index privately; render via the query result's
      //  node id only — the REPL example prints full XML itself.)
      out << "node#" << result.output << "\n";
    }
    if (response.results.empty()) out << "(no results)\n";
    return out.str();
  }

  if (verb == "checkpoint") {
    session_->Checkpoint();
    return "ok (depth " + std::to_string(session_->undo_depth()) + ")";
  }

  if (verb == "undo") {
    LOTUSX_RETURN_IF_ERROR(session_->Undo());
    return std::string("ok");
  }

  if (verb == "show") {
    std::ostringstream out;
    for (const CanvasNode& node : canvas.nodes()) {
      out << "box " << node.id << " (" << node.x << "," << node.y << ") tag='"
          << node.tag << "'";
      if (node.predicate.op == twig::ValuePredicate::Op::kEquals) {
        out << " =\"" << node.predicate.text << "\"";
      } else if (node.predicate.op == twig::ValuePredicate::Op::kContains) {
        out << " ~\"" << node.predicate.text << "\"";
      }
      if (node.ordered) out << " [ordered]";
      if (node.output) out << " [output]";
      out << "\n";
    }
    for (const CanvasEdge& edge : canvas.edges()) {
      out << "edge " << edge.from
          << (edge.axis == twig::Axis::kChild ? " / " : " // ") << edge.to
          << "\n";
    }
    if (canvas.empty()) out << "(empty canvas)\n";
    return out.str();
  }

  if (verb == "reset") {
    canvas.Reset();
    return std::string("ok");
  }

  return Status::InvalidArgument("unknown command '" + tokens[0] +
                                 "'; try HELP");
}

}  // namespace lotusx::session
