// Pins the statement-fingerprint semantics (twig/fingerprint.h): two
// queries share a fingerprint exactly when they share structure, tags,
// axes, order constraints, output node, predicate operators, and
// evaluation options. Value-predicate *texts* are the one thing
// normalized out — //book[title="XML"] and //book[title="SQL"] must
// collapse to a single statement — and the mutation sweep below walks
// every other dimension asserting it diverges the fingerprint.

#include "twig/fingerprint.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "twig/evaluator.h"
#include "twig/twig_query.h"

namespace lotusx::twig {
namespace {

/// //book[title="XML"]//author! — the base shape every mutation starts
/// from: two levels, one predicate, non-root output node.
TwigQuery BaseQuery(std::string_view literal = "XML") {
  TwigQuery query;
  QueryNodeId book = query.AddRoot("book");
  QueryNodeId title = query.AddChild(book, Axis::kChild, "title");
  query.SetPredicate(title,
                     {ValuePredicate::Op::kEquals, std::string(literal)});
  QueryNodeId author = query.AddChild(book, Axis::kDescendant, "author");
  query.SetOutput(author);
  return query;
}

TEST(FingerprintTest, DeterministicAcrossCalls) {
  const QueryFingerprint a = FingerprintQuery(BaseQuery());
  const QueryFingerprint b = FingerprintQuery(BaseQuery());
  EXPECT_EQ(a.value, b.value);
  EXPECT_NE(a.value, 0u) << "0 is the no-fingerprint sentinel";
}

TEST(FingerprintTest, LiteralOnlyChangesCollapseToOneShape) {
  const QueryFingerprint xml = FingerprintQuery(BaseQuery("XML"));
  const QueryFingerprint sql = FingerprintQuery(BaseQuery("SQL"));
  const QueryFingerprint empty = FingerprintQuery(BaseQuery(""));
  EXPECT_EQ(xml.value, sql.value);
  EXPECT_EQ(xml.value, empty.value);
  // ... while the literals ride along for reconstruction.
  ASSERT_EQ(xml.literals.size(), 1u);
  EXPECT_EQ(xml.literals[0], "XML");
  EXPECT_EQ(sql.literals[0], "SQL");
}

TEST(FingerprintTest, MutationSweepDivergesEveryStructuralDimension) {
  const uint64_t base = FingerprintQuery(BaseQuery()).value;
  std::vector<std::pair<std::string, TwigQuery>> mutants;

  {  // different tag on an inner node
    TwigQuery q = BaseQuery();
    q.SetTag(1, "subtitle");
    mutants.emplace_back("tag", q);
  }
  {  // child vs descendant on an edge
    TwigQuery q = BaseQuery();
    q.SetIncomingAxis(1, Axis::kDescendant);
    mutants.emplace_back("axis", q);
  }
  {  // the document-root axis (//book vs /book)
    TwigQuery q = BaseQuery();
    q.set_root_axis(Axis::kChild);
    mutants.emplace_back("root-axis", q);
  }
  {  // one more node
    TwigQuery q = BaseQuery();
    q.AddChild(0, Axis::kChild, "year");
    mutants.emplace_back("extra-node", q);
  }
  {  // order constraint
    TwigQuery q = BaseQuery();
    q.SetOrdered(0, true);
    mutants.emplace_back("ordered", q);
  }
  {  // different output node
    TwigQuery q = BaseQuery();
    q.SetOutput(1);
    mutants.emplace_back("output", q);
  }
  {  // predicate operator (the text stays excluded, the op does not)
    TwigQuery q = BaseQuery();
    q.SetPredicate(1, {ValuePredicate::Op::kContains, "XML"});
    mutants.emplace_back("predicate-op", q);
  }
  {  // predicate dropped entirely
    TwigQuery q = BaseQuery();
    q.SetPredicate(1, {});
    mutants.emplace_back("predicate-removed", q);
  }

  std::set<uint64_t> seen = {base};
  for (const auto& [name, query] : mutants) {
    const uint64_t mutated = FingerprintQuery(query).value;
    EXPECT_NE(mutated, base) << "mutation '" << name
                             << "' should change the fingerprint";
    EXPECT_TRUE(seen.insert(mutated).second)
        << "mutation '" << name << "' collided with an earlier mutant";
  }
}

TEST(FingerprintTest, EveryEvalOptionFieldFeedsTheFingerprint) {
  // sizeof tripwire: if EvalOptions grows, fingerprint.cc's
  // static_assert fires at build time and this sweep must learn the new
  // field. Keep the two in lockstep.
  static_assert(sizeof(EvalOptions) == 4,
                "EvalOptions changed: add the new field to this sweep and "
                "to FingerprintQuery");
  const TwigQuery query = BaseQuery();
  const uint64_t base = FingerprintQuery(query, EvalOptions{}).value;

  std::vector<std::pair<std::string, EvalOptions>> variants;
  {
    EvalOptions o;
    o.algorithm = Algorithm::kTwigStack;
    variants.emplace_back("algorithm", o);
  }
  {
    EvalOptions o;
    o.algorithm = Algorithm::kStructuralJoinReordered;
    variants.emplace_back("algorithm=structural-join+reorder", o);
  }

  std::set<uint64_t> seen = {base};
  for (const auto& [name, options] : variants) {
    const uint64_t varied = FingerprintQuery(query, options).value;
    EXPECT_NE(varied, base) << "option '" << name << "' must diverge";
    EXPECT_TRUE(seen.insert(varied).second)
        << "option '" << name << "' collided with an earlier variant";
  }
}

TEST(FingerprintTest, FormatParseRoundTrip) {
  const uint64_t value = FingerprintQuery(BaseQuery()).value;
  const std::string text = FormatFingerprint(value);
  EXPECT_EQ(text.substr(0, 2), "0x");
  EXPECT_EQ(text.size(), 18u);  // 0x + 16 hex digits
  EXPECT_EQ(ParseFingerprint(text), value);
  // Bare hex (no prefix) is accepted too; garbage is the 0 sentinel.
  EXPECT_EQ(ParseFingerprint(text.substr(2)), value);
  EXPECT_EQ(ParseFingerprint(""), 0u);
  EXPECT_EQ(ParseFingerprint("0x"), 0u);
  EXPECT_EQ(ParseFingerprint("not-hex"), 0u);
  EXPECT_EQ(ParseFingerprint("0x12345q"), 0u);
}

TEST(FingerprintTest, NormalizedTextReplacesLiteralsOnly) {
  const std::string normalized = NormalizedQueryText(BaseQuery("XML"));
  EXPECT_EQ(normalized, NormalizedQueryText(BaseQuery("SQL")))
      << "normalized text is per-shape, not per-literal";
  EXPECT_EQ(normalized.find("XML"), std::string::npos) << normalized;
  EXPECT_NE(normalized.find('?'), std::string::npos) << normalized;
  // Structure survives: tags and the output marker still render.
  EXPECT_NE(normalized.find("book"), std::string::npos) << normalized;
  EXPECT_NE(normalized.find("author"), std::string::npos) << normalized;
}

}  // namespace
}  // namespace lotusx::twig
