// Experiment E5 — quality of the ranking strategy. Synthetic corpora with
// planted ground truth: a small set of "target" publications is
// constructed to be what the user is actually looking for, surrounded by
// distractors that also match the query. Rankers compete on
// precision@k and MRR against that ground truth.
//
// Scenario A (content): targets mention the query keyword heavily and
// exclusively in the title; distractors mention it once among noise.
// Scenario B (structure): the user asks //conference//title; targets are
// the conference's own titles (tight, parent-child), distractors are
// titles of nested workshop sub-trees (sprawling matches).
//
// Expected shape: the full LotusX ranking clearly beats document order
// and random; the ablations show each signal carries its scenario.
//
// Experiment E14 — cost of the rank stage. One broad query (10^4+
// matches) on the 10x DBLP corpus, ranked to the served top 20 and in
// full (k=0). Expected shape: the ranker allocates only the results it
// returns (the vector plus one Match copy each), so k=20 makes 21
// allocations whatever the match count and k=0 one per match more. The
// allocation counts are exact and gated.

#include <cstdio>
#include <set>

#include "bench/bench_util.h"
#include "common/random.h"
#include "index/indexed_document.h"
#include "ranking/ranker.h"
#include "twig/evaluator.h"
#include "twig/query_parser.h"

namespace lotusx {
namespace {

using bench::Fmt;
using bench::Table;

struct Scenario {
  index::IndexedDocument indexed;
  twig::TwigQuery query;
  std::vector<xml::NodeId> relevant;  // ground-truth output nodes
};

/// Scenario A: keyword relevance. 10 planted targets with tf=4 of the
/// keyword in short titles; 300 distractors with tf=1 in long noisy
/// titles (they all match ~"lotus").
Scenario BuildContentScenario(uint64_t seed) {
  Random random(seed);
  xml::Document doc;
  xml::NodeId root = doc.AppendElement(xml::kInvalidNodeId, "dblp");
  std::vector<int> kinds;  // 1 = target, 0 = distractor
  for (int i = 0; i < 10; ++i) kinds.push_back(1);
  for (int i = 0; i < 300; ++i) kinds.push_back(0);
  random.Shuffle(kinds);
  std::vector<xml::NodeId> relevant;
  for (int kind : kinds) {
    xml::NodeId article = doc.AppendElement(root, "article");
    xml::NodeId title = doc.AppendElement(article, "title");
    if (kind == 1) {
      doc.AppendText(title, "lotus lotus lotus lotus survey");
      relevant.push_back(title);
    } else {
      std::string text = "lotus";
      for (int w = 0; w < 12; ++w) text += " " + random.NextWord(4, 8);
      doc.AppendText(title, text);
    }
    xml::NodeId year = doc.AppendElement(article, "year");
    doc.AppendText(year, std::to_string(random.NextInRange(1990, 2012)));
  }
  doc.Finalize();
  Scenario scenario{index::IndexedDocument(std::move(doc)),
                    twig::ParseQuery(R"(//article/title[~"lotus"])").value(),
                    std::move(relevant)};
  return scenario;
}

/// Scenario B: structural tightness. //conference//title; the user wants
/// the conference's own titles (direct children), not the titles buried
/// in nested workshop subtrees.
Scenario BuildStructureScenario(uint64_t seed) {
  Random random(seed);
  xml::Document doc;
  xml::NodeId root = doc.AppendElement(xml::kInvalidNodeId, "proceedings");
  std::vector<xml::NodeId> relevant;
  for (int i = 0; i < 40; ++i) {
    xml::NodeId conference = doc.AppendElement(root, "conference");
    xml::NodeId title = doc.AppendElement(conference, "title");
    doc.AppendText(title, "conf " + random.NextWord(4, 8));
    relevant.push_back(title);
    // A big nested workshop blob with many distant titles.
    xml::NodeId sessions = doc.AppendElement(conference, "sessions");
    for (int w = 0; w < 6; ++w) {
      xml::NodeId workshop = doc.AppendElement(sessions, "workshop");
      xml::NodeId wt = doc.AppendElement(workshop, "title");
      doc.AppendText(wt, "ws " + random.NextWord(4, 8));
      for (int p = 0; p < 4; ++p) {
        xml::NodeId paper = doc.AppendElement(workshop, "paper");
        xml::NodeId pt = doc.AppendElement(paper, "title");
        doc.AppendText(pt, "paper " + random.NextWord(4, 8));
      }
    }
  }
  doc.Finalize();
  Scenario scenario{index::IndexedDocument(std::move(doc)),
                    twig::ParseQuery("//conference//title").value(),
                    std::move(relevant)};
  return scenario;
}

struct Quality {
  double precision_at_10 = 0;
  double mrr = 0;
};

Quality Judge(const std::vector<xml::NodeId>& ordering,
              const std::vector<xml::NodeId>& relevant) {
  Quality quality;
  std::set<xml::NodeId> truth(relevant.begin(), relevant.end());
  size_t hits = 0;
  for (size_t i = 0; i < ordering.size() && i < 10; ++i) {
    if (truth.contains(ordering[i])) ++hits;
  }
  quality.precision_at_10 = static_cast<double>(hits) / 10.0;
  for (size_t i = 0; i < ordering.size(); ++i) {
    if (truth.contains(ordering[i])) {
      quality.mrr = 1.0 / static_cast<double>(i + 1);
      break;
    }
  }
  return quality;
}

/// Deduplicated output ordering from ranked results (first occurrence).
std::vector<xml::NodeId> Ordering(
    const std::vector<ranking::RankedResult>& ranked) {
  std::vector<xml::NodeId> ordering;
  std::set<xml::NodeId> seen;
  for (const ranking::RankedResult& result : ranked) {
    if (seen.insert(result.output).second) ordering.push_back(result.output);
  }
  return ordering;
}

void RunScenario(std::string_view name, const Scenario& scenario,
                 Table* table) {
  auto evaluated = twig::Evaluate(scenario.indexed, scenario.query);
  CHECK(evaluated.ok());
  ranking::Ranker ranker(scenario.indexed);

  struct Contender {
    std::string name;
    ranking::RankingOptions options;
  };
  std::vector<Contender> contenders = {
      {"lotusx-full", {}},
      {"content-only", {.content_weight = 1, .structure_weight = 0,
                        .specificity_weight = 0}},
      {"structure-only", {.content_weight = 0, .structure_weight = 1,
                          .specificity_weight = 0}},
  };
  for (const Contender& contender : contenders) {
    std::vector<ranking::RankedResult> ranked;
    bench::MedianMillis(
        "rank",
        "scenario=" + std::string(name) + " ranker=" + contender.name +
            " matches=" + std::to_string(evaluated->matches.size()),
        5, [&] {
          ranked =
              ranker.Rank(scenario.query, evaluated->matches,
                          contender.options);
        });
    Quality quality = Judge(Ordering(ranked), scenario.relevant);
    table->AddRow({std::string(name), contender.name,
                   Fmt(quality.precision_at_10, 2), Fmt(quality.mrr, 3)});
  }
  // Document-order baseline ("unranked list").
  {
    std::vector<xml::NodeId> ordering =
        evaluated->OutputNodes(scenario.query.output());
    Quality quality = Judge(ordering, scenario.relevant);
    table->AddRow({std::string(name), "doc-order",
                   Fmt(quality.precision_at_10, 2), Fmt(quality.mrr, 3)});
  }
  // Random baseline, averaged over 20 shuffles.
  {
    std::vector<xml::NodeId> ordering =
        evaluated->OutputNodes(scenario.query.output());
    Random random(99);
    Quality sum;
    for (int i = 0; i < 20; ++i) {
      random.Shuffle(ordering);
      Quality quality = Judge(ordering, scenario.relevant);
      sum.precision_at_10 += quality.precision_at_10;
      sum.mrr += quality.mrr;
    }
    table->AddRow({std::string(name), "random",
                   Fmt(sum.precision_at_10 / 20, 2), Fmt(sum.mrr / 20, 3)});
  }
}

/// E14: times Rank alone over a fixed match list at k=20 and k=0, next
/// to the evaluation that produced the matches.
void RunRankStage(Table* table) {
  index::IndexedDocument indexed = bench::MakeDblp(42, 200'000);
  const std::string query_text = "//dblp//author";
  twig::TwigQuery query = bench::MustParse(query_text);
  bench::TimedEval evaluated = bench::TimedEvaluate(indexed, query);
  const std::vector<twig::Match>& matches = evaluated.result.matches;
  ranking::Ranker ranker(indexed);
  for (size_t k : {size_t{20}, size_t{0}}) {
    ranking::RankingOptions options;
    options.top_k = k;
    std::vector<ranking::RankedResult> ranked;
    bench::AllocPerOp alloc;
    std::vector<double> samples = bench::SampleMillis(
        9, [&] { ranked = ranker.Rank(query, matches, options); }, &alloc);
    bench::BenchJson::Instance().Record(
        "rank_stage",
        "query=" + query_text + " k=" + std::to_string(k) +
            " matches=" + std::to_string(matches.size()),
        samples, alloc);
    double rank_ms = samples[samples.size() / 2];
    table->AddRow({query_text, std::to_string(k),
                   std::to_string(matches.size()),
                   std::to_string(ranked.size()), Fmt(evaluated.ms, 3),
                   Fmt(rank_ms, 3), Fmt(rank_ms / (evaluated.ms + rank_ms), 3),
                   Fmt(alloc.allocs, 0), Fmt(alloc.bytes, 0)});
  }
}

}  // namespace
}  // namespace lotusx

int main(int argc, char** argv) {
  std::printf(
      "E5: ranking quality against planted ground truth (precision@10, "
      "MRR)\n\n");
  lotusx::bench::Table table({"scenario", "ranker", "P@10", "MRR"});
  {
    lotusx::Scenario scenario = lotusx::BuildContentScenario(11);
    lotusx::RunScenario("A content (10/310 relevant)", scenario, &table);
  }
  {
    lotusx::Scenario scenario = lotusx::BuildStructureScenario(13);
    lotusx::RunScenario("B structure (40/1040 relevant)", scenario, &table);
  }
  table.Print();
  std::printf(
      "\nexpected shape: lotusx-full near the top in both scenarios;\n"
      "content-only wins A but collapses on B, structure-only vice versa;\n"
      "doc-order and random trail far behind in both.\n");

  std::printf("\nE14: rank-stage cost on the 10x DBLP corpus\n\n");
  lotusx::bench::Table stage({"query", "k", "matches", "kept", "eval ms",
                              "rank ms", "rank share", "allocs/op",
                              "bytes/op"});
  lotusx::RunRankStage(&stage);
  stage.Print();
  std::printf(
      "\nexpected shape: only the returned results allocate: k=20 makes "
      "21\nallocations whatever the match count, k=0 one per match more.\n");
  return lotusx::bench::WriteJsonIfRequested(argc, argv);
}
