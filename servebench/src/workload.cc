#include "workload.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "index/indexed_document.h"
#include "session/canvas_io.h"
#include "session/protocol.h"
#include "session/session.h"
#include "stream.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"
#include "twig/selectivity.h"
#include "xml/dom_builder.h"
#include "xml/writer.h"

namespace servebench {
namespace {

using lotusx::Random;
using lotusx::index::IndexedDocument;

// The DBLP generator's publication kinds; index kAnyKind pools them all
// (the '*' root step).
constexpr std::array<const char*, 3> kKinds = {"article", "inproceedings",
                                               "book"};
constexpr int kAnyKind = 3;
// Per kind: the field holding its venue, and fields it never has (an
// "impossible branch").
constexpr std::array<const char*, 3> kVenueField = {"journal", "booktitle",
                                                    "publisher"};
constexpr std::array<std::array<const char*, 2>, 3> kForeignFields = {{
    {"booktitle", "isbn"}, {"journal", "volume"}, {"pages", "volume"}}};

// The corpus is the same for every run, like the one dataset a LotusX
// deployment serves; the run's seed draws what its users do with it.
// Seed-to-seed differences then come from the command streams alone.
constexpr uint64_t kCorpusSeed = 42;
// Match-count windows at the reference corpus size (200k nodes); smaller
// corpora (the smoke test) scale them down.
constexpr double kReferenceNodes = 200000;
constexpr double kSelectiveMin = 10, kSelectiveMax = 999;  // canvas RUNs
// twig_rank streams follow a fixed schedule of result-size bands, so every
// seed's stream holds the same mix of sizes. The schedule matches the
// bands' natural shares among generated candidates (about 69/27/5 %).
constexpr std::array<double, 4> kBroadBandEdges = {1e3, 3162, 1e4, 1e5};
constexpr std::array<size_t, 24> kBroadBandSchedule = {
    0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0};
// relax_rewrite cycles through the kinds of mistake BrokenQuery makes.
constexpr uint64_t kMistakes = 6;
// Distinct canvases users draw (a power of two), and the skew of their
// popularity.
constexpr size_t kCanvasTargets = 256;
static_assert((kCanvasTargets & (kCanvasTargets - 1)) == 0);
constexpr double kCanvasPopularitySkew = 0.9;
// Threads that generate the stream, one chunk of scripts each.
constexpr size_t kGenerationThreads = 4;

// Publications whose field contains a word, per word, and the words by
// that count, most frequent first.
struct WordTable {
  std::map<std::string, int> df;
  std::vector<std::string> by_df;
};

struct Pub {
  int kind = 0;
  std::vector<std::string> title_words;
};

// What the generators need to know about the corpus: literals are drawn
// from it, so every predicate names a word that really occurs.
struct Corpus {
  std::vector<Pub> pubs;
  std::set<std::string> tags;
  std::array<WordTable, 4> title, author, venue;
};

Corpus Summarize(const lotusx::xml::Document& doc) {
  Corpus corpus;
  for (int32_t tag = 0; tag < doc.num_tags(); ++tag) {
    corpus.tags.insert(std::string(doc.tag_name(tag)));
  }
  for (lotusx::xml::NodeId pub : doc.Children(doc.root())) {
    if (!doc.IsElement(pub)) continue;
    int kind = 0;
    while (kind < kAnyKind && doc.TagName(pub) != kKinds[kind]) ++kind;
    if (kind == kAnyKind) continue;
    Pub record;
    record.kind = kind;
    std::set<std::string> title, author, venue;
    for (lotusx::xml::NodeId field : doc.Children(pub)) {
      if (!doc.IsElement(field)) continue;
      const std::string_view tag = doc.TagName(field);
      std::vector<std::string> words =
          lotusx::TokenizeKeywords(doc.ContentString(field));
      if (tag == "title") {
        title.insert(words.begin(), words.end());
        record.title_words = words;
      } else if (tag == "author") {
        author.insert(words.begin(), words.end());
      } else if (tag == kVenueField[kind]) {
        venue.insert(words.begin(), words.end());
      }
    }
    for (int k : {kind, kAnyKind}) {
      for (const std::string& w : title) ++corpus.title[k].df[w];
      for (const std::string& w : author) ++corpus.author[k].df[w];
      if (k != kAnyKind) {
        for (const std::string& w : venue) ++corpus.venue[k].df[w];
      }
    }
    corpus.pubs.push_back(std::move(record));
  }
  for (auto* tables : {&corpus.title, &corpus.author, &corpus.venue}) {
    for (WordTable& table : *tables) {
      for (const auto& [word, df] : table.df) table.by_df.push_back(word);
      std::stable_sort(table.by_df.begin(), table.by_df.end(),
                       [&](const std::string& a, const std::string& b) {
                         return table.df.at(a) > table.df.at(b);
                       });
    }
  }
  if (corpus.pubs.empty()) throw std::runtime_error("corpus has no publications");
  return corpus;
}

uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

// The query RUN executes after "PARSE <text>": the parsed query drawn on
// a canvas and compiled back (which, for one, turns a leading '/' into
// '//').
lotusx::twig::TwigQuery CanvasQuery(const std::string& text) {
  auto parsed = lotusx::twig::ParseQuery(text);
  if (!parsed.ok()) {
    throw std::runtime_error("generated query '" + text +
                             "' does not parse: " + parsed.status().ToString());
  }
  auto query = lotusx::session::CanvasFromQuery(*parsed).Compile();
  if (!query.ok()) {
    throw std::runtime_error("generated query '" + text +
                             "' does not compile: " + query.status().ToString());
  }
  return *std::move(query);
}

size_t CountMatches(const IndexedDocument& indexed,
                    const lotusx::twig::TwigQuery& query) {
  auto result = lotusx::twig::Evaluate(indexed, query);
  if (!result.ok()) {
    throw std::runtime_error("generated query '" + query.ToString() +
                             "' fails: " + result.status().ToString());
  }
  return result->matches.size();
}

// Replays each generated command through the interpreter the server runs
// and keeps its response as the expected payload.
class StreamBuilder {
 public:
  explicit StreamBuilder(const IndexedDocument& indexed)
      : session_(indexed), interpreter_(&session_) {}
  StreamBuilder(const StreamBuilder&) = delete;
  StreamBuilder& operator=(const StreamBuilder&) = delete;

  const std::string& Exec(const std::string& line) {
    lotusx::StatusOr<std::string> response = interpreter_.Execute(line);
    if (!response.ok()) {
      throw std::runtime_error("generated command '" + line +
                               "' failed: " + response.status().ToString());
    }
    commands_.push_back(Command{line, true, *std::move(response)});
    return commands_.back().payload;
  }

  void EndScript() { script_ends_.push_back(commands_.size()); }
  size_t scripts() const { return script_ends_.size(); }
  std::vector<Command>& commands() { return commands_; }
  const std::vector<size_t>& script_ends() const { return script_ends_; }

 private:
  lotusx::session::Session session_;
  lotusx::session::ProtocolInterpreter interpreter_;
  std::vector<Command> commands_;
  std::vector<size_t> script_ends_;  // command count after each script
};

// Texts of a TYPE/TYPEVAL response ("1. author (31610)" per line).
std::vector<std::string> CandidateTexts(const std::string& payload) {
  std::vector<std::string> texts;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    size_t dot = line.find(". ");
    size_t paren = line.rfind(" (");
    if (dot == std::string::npos || paren == std::string::npos || paren < dot) {
      continue;
    }
    texts.push_back(line.substr(dot + 2, paren - dot - 2));
  }
  return texts;
}

// The user picks a suggestion once it shows among the first three.
constexpr size_t kPickWithin = 3;

size_t PickPosition(const std::string& payload, const std::string& wanted) {
  std::vector<std::string> texts = CandidateTexts(payload);
  for (size_t i = 0; i < std::min(texts.size(), kPickWithin); ++i) {
    if (texts[i] == wanted) return i + 1;
  }
  return 0;
}

std::string Contains(const std::string& field, const std::string& word) {
  return field + "[~\"" + word + "\"]";
}

// ---- canvas_typing -------------------------------------------------------

struct CanvasTarget {
  int kind = 0;
  std::vector<std::pair<std::string, std::string>> branches;  // field, word
  size_t matches = 0;
};

std::string TargetQuery(const CanvasTarget& target) {
  std::string query = std::string("//") + kKinds[target.kind];
  for (const auto& [field, word] : target.branches) {
    query += "[" + Contains(field, word) + "]";
  }
  return query;
}

// A word occurring in a moderate number of publications, so the drawn
// query is selective but not empty.
std::string ModerateWord(const WordTable& table, Random& rng, int min_df,
                         int max_df) {
  std::vector<const std::string*> words;
  for (const std::string& word : table.by_df) {
    int df = table.df.at(word);
    if (df >= min_df && df <= max_df) words.push_back(&word);
  }
  if (words.empty()) return "";
  return *words[rng.NextBounded(words.size())];
}

std::vector<CanvasTarget> CanvasTargets(const Corpus& corpus,
                                        const IndexedDocument& indexed,
                                        uint64_t seed, double scale) {
  Random rng(seed ^ 0x63616e7661735f74ULL);
  const int max_df = std::max(2, static_cast<int>(400 * scale));
  std::vector<CanvasTarget> targets;
  std::set<std::string> seen;
  for (size_t attempt = 0; targets.size() < kCanvasTargets; ++attempt) {
    if (attempt > 200 * kCanvasTargets) {
      throw std::runtime_error("corpus too small for selective canvases");
    }
    CanvasTarget target;
    target.kind = static_cast<int>(rng.NextZipf(3, 0.8));
    const int branches = rng.NextBool(0.4) ? 2 : 1;
    for (int b = 0; b < branches; ++b) {
      const bool author = rng.NextBool(0.5);
      std::string word = ModerateWord(
          author ? corpus.author[target.kind] : corpus.title[target.kind],
          rng, 1, max_df);
      if (!word.empty()) target.branches.emplace_back(author ? "author" : "title", word);
    }
    if (target.branches.empty()) continue;
    const std::string query = TargetQuery(target);
    if (!seen.insert(query).second) continue;
    target.matches = CountMatches(indexed, CanvasQuery(query));
    if (target.matches < std::max(1.0, kSelectiveMin * scale) ||
        target.matches > kSelectiveMax * scale) {
      continue;
    }
    targets.push_back(std::move(target));
  }
  // Popularity is independent of cost: with the targets sorted by result
  // size, popularity rank r goes to the target at the bit-reversed
  // position of r, so any most-popular few spread over the whole range of
  // sizes and every seed's mix costs about the same.
  std::stable_sort(targets.begin(), targets.end(),
                   [](const CanvasTarget& a, const CanvasTarget& b) {
                     return a.matches < b.matches;
                   });
  std::vector<CanvasTarget> by_popularity;
  for (size_t rank = 0; rank < kCanvasTargets; ++rank) {
    size_t position = 0;
    for (size_t bit = 1; bit < kCanvasTargets; bit <<= 1) {
      position = (position << 1) | ((rank & bit) ? 1 : 0);
    }
    by_popularity.push_back(targets[position]);
  }
  return by_popularity;
}

int NodeIdOf(const std::string& payload) {  // "node 3 (author)"
  return std::atoi(payload.c_str() + std::string("node ").size());
}

// Keystrokes into a new box until the tag is offered, then ACCEPT.
int TypeAndAccept(StreamBuilder& builder, int anchor, const std::string& axis,
                  const std::string& tag) {
  for (size_t length = 1; length <= tag.size(); ++length) {
    const std::string& shown =
        builder.Exec("TYPE " + std::to_string(anchor) + " " + axis + " " +
                     tag.substr(0, length));
    if (size_t position = PickPosition(shown, tag)) {
      return NodeIdOf(builder.Exec("ACCEPT " + std::to_string(position)));
    }
  }
  throw std::runtime_error("tag '" + tag + "' is never suggested");
}

// Keystrokes into the value editor until the word is offered (or typed in
// full), then set the predicate.
void TypeValue(StreamBuilder& builder, int box, const std::string& word) {
  const std::string id = std::to_string(box);
  for (size_t length = 1; length <= word.size(); ++length) {
    if (PickPosition(builder.Exec("TYPEVAL " + id + " " + word.substr(0, length)),
                     word)) {
      break;
    }
  }
  builder.Exec("VALUE " + id + " ~ " + word);
}

void CanvasScript(StreamBuilder& builder, const CanvasTarget& target) {
  const int root = TypeAndAccept(builder, 0, "//", kKinds[target.kind]);
  for (const auto& [field, word] : target.branches) {
    TypeValue(builder, TypeAndAccept(builder, root, "/", field), word);
  }
  builder.Exec("RUN");
  builder.Exec("RESET");
}

// ---- twig_rank and relax_rewrite -----------------------------------------

struct AnalystQuery {
  std::string text;
  // What the analyst types into the root box before pasting the query.
  std::string typed_prefix;
};

// A frequent word: broad predicates keep twig_rank's result sets large.
std::string BroadWord(const WordTable& table, Random& rng) {
  if (table.by_df.empty()) throw std::runtime_error("empty word table");
  return table.by_df[rng.NextZipf(std::min<size_t>(table.by_df.size(), 40), 0.5)];
}

AnalystQuery BroadQuery(const Corpus& corpus, Random& rng) {
  static constexpr std::array<const char*, 3> kRootSteps = {
      "//", "//dblp/", "//dblp//"};
  static constexpr std::array<const char*, 5> kStructural = {
      "ee", "@key", "year", "author", "title"};
  const int kind = static_cast<int>(rng.NextZipf(4, 0.6));
  const std::string root = kind == kAnyKind ? "*" : kKinds[kind];
  std::string predicate;
  switch (rng.NextBounded(kind == kAnyKind ? 3 : 4)) {
    case 0:
      predicate = Contains("title", BroadWord(corpus.title[kind], rng));
      break;
    case 1:
      predicate = Contains("author", BroadWord(corpus.author[kind], rng));
      break;
    case 2:
      predicate = "year[=\"" + std::to_string(1990 + rng.NextBounded(23)) + "\"]";
      break;
    default:
      predicate = Contains(kVenueField[kind], BroadWord(corpus.venue[kind], rng));
  }
  std::string text = kRootSteps[rng.NextBounded(kRootSteps.size())] + root;
  const uint64_t output = rng.NextBounded(5);
  if (output == 0) text += "!";
  text += "[" + predicate + "]";
  if (rng.NextBool(0.5)) {
    text += std::string("[") + kStructural[rng.NextBounded(kStructural.size())] + "]";
  }
  static constexpr std::array<const char*, 5> kOutputs = {"", "/author",
                                                          "//author", "/title",
                                                          "/year"};
  text += kOutputs[output];
  return {text, kind == kAnyKind ? "db" : root.substr(0, 2)};
}

// One edit (deletion, transposition or substitution) that lands on no tag
// of the corpus.
std::string Misspell(const std::string& tag, const Corpus& corpus,
                     Random& rng) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string typo = tag;
    const size_t i = rng.NextBounded(typo.size());
    switch (rng.NextBounded(3)) {
      case 0:
        typo.erase(i, 1);
        break;
      case 1:
        if (i + 1 < typo.size()) {
          std::swap(typo[i], typo[i + 1]);
        } else {
          typo.erase(i, 1);
        }
        break;
      default:
        typo[i] = static_cast<char>('a' + rng.NextBounded(26));
    }
    if (!typo.empty() && typo != tag && !corpus.tags.count(typo)) return typo;
  }
  throw std::runtime_error("cannot misspell '" + tag + "'");
}

// An empty query a user might plausibly draw: a real publication's
// rarest title word (a selective predicate the rewriter should keep)
// plus one mistake the rewriter has a rule for.
AnalystQuery BrokenQuery(const Corpus& corpus, uint64_t mistake, Random& rng) {
  const Pub& pub = corpus.pubs[rng.NextBounded(corpus.pubs.size())];
  const std::string kind = kKinds[pub.kind];
  // The title's words, rarest first.
  std::vector<std::string> words(pub.title_words);
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  const std::map<std::string, int>& df = corpus.title[pub.kind].df;
  std::stable_sort(words.begin(), words.end(),
                   [&](const std::string& a, const std::string& b) {
                     return df.at(a) < df.at(b);
                   });
  const std::string& word = words.front();
  const std::string selective = "[" + Contains("title", word) + "]";
  const std::string output = rng.NextBool(0.5) ? "author" : "year";
  std::string text;
  switch (mistake % kMistakes) {
    case 0: {  // misspelled branch tag
      const std::string field = rng.NextBool(0.5) ? kVenueField[pub.kind] : "year";
      text = "//" + kind + selective + "[" + Misspell(field, corpus, rng) +
             "]/" + output;
      break;
    }
    case 1:  // misspelled element
      text = "//" + Misspell(kind, corpus, rng) + selective + "/" + output;
      break;
    case 2:  // misspelled output
      text = "//" + kind + selective + "/" + Misspell(output, corpus, rng);
      break;
    case 3:  // wrong axis: titles sit below the publications, not <dblp>
      // Two keywords: one alone would leave only as many such queries as
      // the corpus has title words.
      text = "//dblp/" + Contains("title", word + (words.size() > 1 ? " " + words[1] : ""));
      break;
    case 4:  // equality where containment was meant
      text = "//" + kind + "[title[=\"" + word + "\"]]/" + output;
      break;
    default:  // a branch this kind of publication never has
      text = "//" + kind + selective + "[" +
             kForeignFields[pub.kind][rng.NextBounded(2)] + "]/" + output;
  }
  return {text, kind.substr(0, 2)};
}

// Scripts are self-contained (each canvas ends in RESET; each analyst
// query replaces the canvas with PARSE), so the stream can be
// generated in chunks on separate sessions and concatenated: the
// responses are those of one session replaying the whole stream, which
// the served run checks.
struct ChunkSpec {
  size_t scripts = 0;
  // Queries of this chunk are those hashing to `part` of `parts`, so no
  // query repeats within a run.
  uint64_t part = 0, parts = 1;
};

std::unique_ptr<StreamBuilder> BuildChunk(const PrepareOptions& options,
                                          const ChunkSpec& chunk, const Corpus& corpus,
                                          const IndexedDocument& indexed,
                                          const std::vector<CanvasTarget>& targets,
                                          double scale) {
  auto builder = std::make_unique<StreamBuilder>(indexed);
  Random rng(options.seed * 0x9E3779B97F4A7C15ULL + chunk.part + 1);
  std::set<std::string> seen;
  // Distinct texts can compile to one query; RUN sees the compiled one.
  auto fresh = [&](const AnalystQuery& query, lotusx::twig::TwigQuery* compiled) {
    *compiled = CanvasQuery(query.text);
    const std::string key = compiled->ToString();
    return Fnv1a(key) % chunk.parts == chunk.part && seen.insert(key).second;
  };
  // twig_rank candidates wait here for their band's turn.
  std::array<std::deque<AnalystQuery>, kBroadBandEdges.size() - 1> bands;
  size_t attempts = 0;
  while (builder->scripts() < chunk.scripts) {
    if (++attempts > 200 * chunk.scripts + 1000) {
      throw std::runtime_error("cannot generate enough distinct queries");
    }
    const size_t slot = builder->scripts();
    if (options.workload == "canvas_typing") {
      CanvasScript(*builder,
                   targets[rng.NextZipf(targets.size(), kCanvasPopularitySkew)]);
      builder->EndScript();
      continue;
    }
    AnalystQuery query;
    lotusx::twig::TwigQuery compiled;
    if (options.workload == "twig_rank") {
      std::deque<AnalystQuery>& band =
          bands[kBroadBandSchedule[slot % kBroadBandSchedule.size()]];
      if (band.empty()) {
        AnalystQuery candidate = BroadQuery(corpus, rng);
        if (!fresh(candidate, &compiled)) continue;
        // The planner's estimate screens out hopeless candidates before
        // the exact count is paid for. For these twigs it lies within
        // 0.7-1.3x of the count, so half the lowest edge loses no
        // in-band candidate and skips about half of the counts that
        // would end out of band.
        const double estimate =
            lotusx::twig::EstimateSelectivity(indexed, compiled).match_cardinality;
        if (estimate < kBroadBandEdges.front() * scale / 2 ||
            estimate > kBroadBandEdges.back() * scale * 4) {
          continue;
        }
        const double matches = static_cast<double>(CountMatches(indexed, compiled));
        if (matches < kBroadBandEdges.front() * scale ||
            matches > kBroadBandEdges.back() * scale) {
          continue;
        }
        size_t b = 0;
        while (b + 1 < bands.size() && matches >= kBroadBandEdges[b + 1] * scale) ++b;
        bands[b].push_back(std::move(candidate));
        continue;
      }
      query = std::move(band.front());
      band.pop_front();
    } else {
      query = BrokenQuery(corpus, slot, rng);
      if (!fresh(query, &compiled) || CountMatches(indexed, compiled) != 0) continue;
    }
    builder->Exec("TYPE 0 // " + query.typed_prefix);
    builder->Exec("PARSE " + query.text);
    builder->Exec("RUN");
    builder->EndScript();
  }
  return builder;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "canvas_typing" || name == "twig_rank" ||
         name == "relax_rewrite";
}

void Prepare(const PrepareOptions& options) {
  const int64_t start = NowNanos();
  const std::string corpus_path = options.dir + "/corpus.xml";
  {
    std::ofstream out(corpus_path, std::ios::binary);
    out << lotusx::xml::WriteXml(
        lotusx::datagen::GenerateDblpWithApproxNodes(kCorpusSeed, options.nodes));
    if (!out) Fail("cannot write " + corpus_path);
  }
  // Index exactly what the server will index: the file, parsed.
  auto parsed = lotusx::xml::ParseDocumentFile(corpus_path);
  if (!parsed.ok()) Fail("corpus does not parse: " + parsed.status().ToString());
  const IndexedDocument indexed(*std::move(parsed));
  const double scale =
      std::min(1.0, static_cast<double>(options.nodes) / kReferenceNodes);

  // The scripts are generated in chunks, one thread each.
  std::vector<ChunkSpec> chunks(kGenerationThreads);
  for (size_t c = 0; c < chunks.size(); ++c) {
    chunks[c].scripts = options.scripts * (c + 1) / chunks.size() -
                        options.scripts * c / chunks.size();
    chunks[c].part = c;
    chunks[c].parts = chunks.size();
  }
  std::vector<std::unique_ptr<StreamBuilder>> built(chunks.size());
  std::vector<std::string> errors(chunks.size());
  try {
    const Corpus corpus = Summarize(indexed.document());
    std::vector<CanvasTarget> targets;
    if (options.workload == "canvas_typing") {
      targets = CanvasTargets(corpus, indexed, options.seed, scale);
    }
    std::vector<std::thread> threads;
    for (size_t i = 0; i < chunks.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          built[i] = BuildChunk(options, chunks[i], corpus, indexed, targets, scale);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  } catch (const std::exception& e) {
    Fail(options.workload + ": " + e.what());
  }
  for (const std::string& error : errors) {
    if (!error.empty()) Fail(options.workload + ": " + error);
  }
  Stream stream;
  size_t scripts = 0;
  for (const std::unique_ptr<StreamBuilder>& chunk : built) {
    for (size_t end : chunk->script_ends()) {
      if (++scripts == options.warmup_scripts) stream.warmup = stream.commands.size() + end;
    }
    for (Command& command : chunk->commands()) stream.commands.push_back(std::move(command));
  }
  WriteStream(StreamPath(options.dir), stream);
  std::printf("{\"nodes\": %d, \"commands\": %zu, \"prepare_s\": %.3f}\n",
              indexed.document().num_nodes(), stream.commands.size(),
              static_cast<double>(NowNanos() - start) / 1e9);
}

}  // namespace servebench
