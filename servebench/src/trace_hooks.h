// The module boundaries the traced replay records spans at: the mangled
// names of the public functions one LotusX module calls in another.
// CMakeLists.txt reads the SB_SYM_ lines below and links servebench_trace
// with --wrap for each; trace.cc defines the matching __wrap_ functions.
// A signature change in src/ shows up as an undefined __real_ symbol when
// servebench_trace links; the untraced tools do not depend on this list.
#ifndef SERVEBENCH_TRACE_HOOKS_H_
#define SERVEBENCH_TRACE_HOOKS_H_

// session::Canvas::Compile(std::map<CanvasNodeId, QueryNodeId>*) const
#define SB_SYM_CANVAS_COMPILE "_ZNK6lotusx7session6Canvas7CompileEPSt3mapIiiSt4lessIiESaISt4pairIKiiEEE"
// autocomplete::CompletionEngine::CompleteTag(const TwigQuery&, const TagRequest&) const
#define SB_SYM_COMPLETE_TAG "_ZNK6lotusx12autocomplete16CompletionEngine11CompleteTagERKNS_4twig9TwigQueryERKNS0_10TagRequestE"
// autocomplete::CompletionEngine::CompleteValue(const TwigQuery&, QueryNodeId, std::string_view, size_t, bool) const
#define SB_SYM_COMPLETE_VALUE "_ZNK6lotusx12autocomplete16CompletionEngine13CompleteValueERKNS_4twig9TwigQueryEiSt17basic_string_viewIcSt11char_traitsIcEEmb"
// twig::Evaluate(const IndexedDocument&, const TwigQuery&, const EvalOptions&)
#define SB_SYM_EVALUATE "_ZN6lotusx4twig8EvaluateERKNS_5index15IndexedDocumentERKNS0_9TwigQueryERKNS0_11EvalOptionsE"
// twig::plan::Planner::Plan(const TwigQuery&, const PlannerHints&) const
#define SB_SYM_PLAN "_ZNK6lotusx4twig4plan7Planner4PlanERKNS0_9TwigQueryERKNS1_12PlannerHintsE"
// twig::plan::ExecutePlan(const IndexedDocument&, PhysicalPlan*, const ExecuteOptions&)
#define SB_SYM_EXECUTE_PLAN "_ZN6lotusx4twig4plan11ExecutePlanERKNS_5index15IndexedDocumentEPNS1_12PhysicalPlanERKNS1_14ExecuteOptionsE"
// rewrite::Rewriter::Rewrite(const TwigQuery&, const RewriteOptions&) const
#define SB_SYM_REWRITE "_ZNK6lotusx7rewrite8Rewriter7RewriteERKNS_4twig9TwigQueryERKNS0_14RewriteOptionsE"
// ranking::Ranker::Rank(const TwigQuery&, const std::vector<Match>&, const RankingOptions&) const
#define SB_SYM_RANK "_ZNK6lotusx7ranking6Ranker4RankERKNS_4twig9TwigQueryERKSt6vectorINS2_5MatchESaIS7_EERKNS0_14RankingOptionsE"

#endif  // SERVEBENCH_TRACE_HOOKS_H_
