// Experiment E8 (ablation) — quality of the DataGuide-based cardinality
// estimator and of the cost-based automatic algorithm choice.
//
// Part 1: estimated vs actual match counts over a query suite (the
// q-error, max(est/act, act/est), is the standard estimator metric).
// Part 2: regret of the kAuto algorithm picker (the planner's cheapest
// join) — how much slower the chosen algorithm is than the best one per
// query.
//
// Expected shape: q-error near 1 for structure-only queries (the schema
// evaluation is exact per node; only branch correlation adds error) and
// within a small factor for predicate queries (term independence); the
// auto picker's mean regret stays well below the cost of always choosing
// the worst algorithm, and it never picks a catastrophic plan.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "datagen/datagen.h"
#include "index/indexed_document.h"
#include "twig/evaluator.h"
#include "twig/plan/physical_plan.h"
#include "twig/query_parser.h"
#include "twig/selectivity.h"

namespace lotusx {
namespace {

using bench::Fmt;
using bench::Table;

double QError(double estimated, double actual) {
  double est = std::max(estimated, 0.5);
  double act = std::max(actual, 0.5);
  return std::max(est / act, act / est);
}

struct Suite {
  std::string corpus;
  const index::IndexedDocument* indexed;
  std::vector<std::string> queries;
};

void RunEstimator(const Suite& suite, Table* table, double* qerror_sum,
                  int* count) {
  for (const std::string& text : suite.queries) {
    twig::TwigQuery query = bench::MustParse(text);
    twig::SelectivityEstimate estimate =
        twig::EstimateSelectivity(*suite.indexed, query);
    auto result = twig::Evaluate(*suite.indexed, query);
    CHECK(result.ok());
    double actual = static_cast<double>(result->matches.size());
    double qerror = QError(estimate.match_cardinality, actual);
    *qerror_sum += qerror;
    ++*count;
    table->AddRow({suite.corpus, text, Fmt(estimate.match_cardinality, 1),
                   Fmt(actual, 0), Fmt(qerror, 2)});
  }
}

void RunPicker(const Suite& suite, Table* table, double* regret_sum,
               double* worst_sum, int* count) {
  for (const std::string& text : suite.queries) {
    twig::TwigQuery query = bench::MustParse(text);
    double best = 1e18;
    double worst = 0;
    std::string best_name;
    std::map<twig::Algorithm, double> ms_of;
    for (twig::Algorithm algorithm :
         {twig::Algorithm::kStructuralJoin, twig::Algorithm::kPathStack,
          twig::Algorithm::kTwigStack, twig::Algorithm::kTJFast}) {
      if (algorithm == twig::Algorithm::kPathStack && !query.IsPath()) {
        continue;
      }
      double ms =
          bench::TimedEvaluate(*suite.indexed, query,
                               bench::EvalWith(algorithm), /*repetitions=*/3)
              .ms;
      ms_of[algorithm] = ms;
      if (ms < best) {
        best = ms;
        best_name = std::string(twig::AlgorithmName(algorithm));
      }
      worst = std::max(worst, ms);
    }
    auto plan = twig::plan::Planner(*suite.indexed).Plan(query);
    CHECK(plan.ok());
    twig::Algorithm chosen = plan->algorithm;
    // The chosen join's time is the one the loop above measured, so the
    // regret compares plans, not two timings of the same join.
    CHECK(ms_of.count(chosen) == 1) << twig::AlgorithmName(chosen);
    double chosen_ms = ms_of[chosen];
    // Floor the denominator: ratios over ~0 ms baselines (empty-result
    // early exits) are noise, not plan-quality signal.
    double floor_ms = std::max(best, 0.05);
    double regret = chosen_ms / floor_ms;
    double worst_ratio = worst / floor_ms;
    *regret_sum += regret;
    *worst_sum += worst_ratio;
    ++*count;
    table->AddRow({suite.corpus, text,
                   std::string(twig::AlgorithmName(chosen)), best_name,
                   Fmt(chosen_ms, 2), Fmt(best, 2), Fmt(regret, 2),
                   Fmt(worst_ratio, 2)});
  }
}

}  // namespace
}  // namespace lotusx

int main(int argc, char** argv) {
  std::printf(
      "E8 (ablation): cardinality estimator accuracy and auto algorithm "
      "choice\n\n");

  lotusx::index::IndexedDocument dblp = lotusx::bench::MakeDblp(21, 120'000);
  lotusx::index::IndexedDocument xmark = lotusx::bench::MakeXmark(21, 80'000);

  lotusx::Suite dblp_suite{
      "dblp",
      &dblp,
      {"//article/title", "//article[author][year]/title",
       "//book[isbn]/publisher", R"(//article[year[="2001"]]/title)",
       "//dblp/*[author]/ee", R"(//inproceedings/pages)",
       R"(//article[title[~"xml"]]/author)"}};
  lotusx::Suite xmark_suite{
      "xmark",
      &xmark,
      {"//item[payment]/name", "//listitem//parlist",
       "//person[profile/interest]/name", "//open_auction[bidder]/seller",
       "//item[mailbox//mail]/location"}};

  {
    lotusx::bench::Table table(
        {"corpus", "query", "estimated", "actual", "q-error"});
    double qerror_sum = 0;
    int count = 0;
    lotusx::RunEstimator(dblp_suite, &table, &qerror_sum, &count);
    lotusx::RunEstimator(xmark_suite, &table, &qerror_sum, &count);
    std::printf("estimator accuracy:\n");
    table.Print();
    std::printf("mean q-error: %.2f over %d queries\n\n",
                qerror_sum / count, count);
  }
  {
    lotusx::bench::Table table({"corpus", "query", "chosen", "best",
                                "chosen ms", "best ms", "regret",
                                "worst/best"});
    double regret_sum = 0;
    double worst_sum = 0;
    int count = 0;
    lotusx::RunPicker(dblp_suite, &table, &regret_sum, &worst_sum, &count);
    lotusx::RunPicker(xmark_suite, &table, &regret_sum, &worst_sum, &count);
    std::printf("algorithm picker regret (chosen-time / best-time):\n");
    table.Print();
    std::printf(
        "mean regret %.2fx vs mean worst-case %.2fx over %d queries\n",
        regret_sum / count, worst_sum / count, count);
  }
  std::printf(
      "\nexpected shape: q-error close to 1 without predicates, modest\n"
      "with them; picker regret far below worst/best (it avoids the bad\n"
      "plans even when it misses the absolute best).\n");
  return lotusx::bench::WriteJsonIfRequested(argc, argv);
}
