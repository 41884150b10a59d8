#include <gtest/gtest.h>

#include <algorithm>

#include "labeling/extended_dewey.h"
#include "tests/test_util.h"

namespace lotusx::labeling {
namespace {

using lotusx::testing::MustParse;
using xml::Document;
using xml::NodeId;

constexpr std::string_view kSample =
    "<a><b><c>x</c><c>y</c></b><b><d/></b><e/></a>";

/// Extended Dewey labels of `doc`; the transducer is needed only to build.
ExtendedDeweyStore BuildLabels(const Document& doc) {
  return ExtendedDeweyStore::Build(doc, TagTransducer::Build(doc));
}

/// True when `a` is a proper prefix of `b`.
bool IsProperPrefix(DeweyView a, DeweyView b) {
  return a.size() < b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// ----------------------------------------------------------------- Dewey
// The Dewey relations on extended Dewey labels, with the DOM as oracle.

TEST(DeweyTest, RootLabelIsEmpty) {
  Document doc = MustParse(kSample);
  ExtendedDeweyStore store = BuildLabels(doc);
  ASSERT_EQ(store.size(), static_cast<size_t>(doc.num_nodes()));
  EXPECT_TRUE(store.label(doc.root()).empty());
}

TEST(DeweyTest, LabelLengthEqualsDepth) {
  Document doc = MustParse(kSample);
  ExtendedDeweyStore store = BuildLabels(doc);
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(store.label(id).size(),
              static_cast<size_t>(doc.node(id).depth));
  }
}

TEST(DeweyTest, RelationshipsAgreeWithDom) {
  Document doc = MustParse(kSample);
  ExtendedDeweyStore store = BuildLabels(doc);
  for (NodeId a = 0; a < doc.num_nodes(); ++a) {
    for (NodeId b = 0; b < doc.num_nodes(); ++b) {
      EXPECT_EQ(IsProperPrefix(store.label(a), store.label(b)),
                doc.IsAncestor(a, b))
          << "a=" << a << " b=" << b;
      EXPECT_EQ(IsParentLabel(store.label(a), store.label(b)),
                doc.node(b).parent == a)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(DeweyTest, CompareMatchesDocumentOrder) {
  Document doc = MustParse(kSample);
  ExtendedDeweyStore store = BuildLabels(doc);
  for (NodeId a = 0; a < doc.num_nodes(); ++a) {
    for (NodeId b = 0; b < doc.num_nodes(); ++b) {
      int cmp = CompareLabels(store.label(a), store.label(b));
      if (a < b) {
        EXPECT_LT(cmp, 0);
      } else if (a == b) {
        EXPECT_EQ(cmp, 0);
      } else {
        EXPECT_GT(cmp, 0);
      }
    }
  }
}

// ------------------------------------------------------------ Transducer

TEST(TransducerTest, ChildTagsAreSortedAndComplete) {
  Document doc = MustParse(kSample);
  TagTransducer transducer = TagTransducer::Build(doc);
  xml::TagId a = doc.FindTag("a");
  const std::vector<XTagId>& children = transducer.ChildTags(a);
  // a's children: b, e.
  ASSERT_EQ(children.size(), 2u);
  EXPECT_TRUE(std::is_sorted(children.begin(), children.end()));
  for (XTagId child : children) {
    EXPECT_GE(transducer.ChildIndex(a, child), 0);
  }
  EXPECT_EQ(transducer.ChildIndex(a, doc.FindTag("c")), -1);
}

TEST(TransducerTest, TextChildrenUseSyntheticTag) {
  Document doc = MustParse(kSample);
  TagTransducer transducer = TagTransducer::Build(doc);
  xml::TagId c = doc.FindTag("c");
  ASSERT_EQ(transducer.ChildTags(c).size(), 1u);
  EXPECT_EQ(transducer.ChildTags(c)[0], transducer.text_tag());
}

// --------------------------------------------------------- ExtendedDewey

// Ordinal Dewey's semantics: a label is a proper prefix exactly of its
// descendants' labels, extends its parent's by one component, and labels
// sort in document (NodeId) order. Checked against the DOM on a document
// with attributes and recursive tags.
TEST(ExtendedDeweyTest, StructuralSemanticsMatchOrdinalDewey) {
  Document doc = MustParse(
      "<r a=\"1\"><s><r><s>x</s></r><t/></s><s b=\"2\">y<t/>z</s></r>");
  ExtendedDeweyStore store = BuildLabels(doc);
  for (NodeId a = 0; a < doc.num_nodes(); ++a) {
    for (NodeId b = 0; b < doc.num_nodes(); ++b) {
      EXPECT_EQ(IsProperPrefix(store.label(a), store.label(b)),
                doc.IsAncestor(a, b))
          << "a=" << a << " b=" << b;
      EXPECT_EQ(IsParentLabel(store.label(a), store.label(b)),
                doc.node(b).parent == a)
          << "a=" << a << " b=" << b;
      EXPECT_EQ(CompareLabels(store.label(a), store.label(b)) < 0, a < b)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(ExtendedDeweyTest, DecodesFullTagPath) {
  Document doc = MustParse(kSample);
  TagTransducer transducer = TagTransducer::Build(doc);
  ExtendedDeweyStore store = ExtendedDeweyStore::Build(doc, transducer);
  XTagId root_tag = doc.node(doc.root()).tag;
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    std::vector<XTagId> decoded = ExtendedDeweyStore::DecodeTagPath(
        transducer, root_tag, store.label(id));
    // Compare against the true tag path from the DOM.
    std::vector<XTagId> expected;
    for (NodeId walk = id; walk != xml::kInvalidNodeId;
         walk = doc.node(walk).parent) {
      expected.push_back(doc.node(walk).kind == xml::NodeKind::kText
                             ? transducer.text_tag()
                             : doc.node(walk).tag);
    }
    std::reverse(expected.begin(), expected.end());
    EXPECT_EQ(decoded, expected) << "node " << id;
  }
}

TEST(ExtendedDeweyTest, DecodesOnLargerGeneratedDocument) {
  // A denser structure with attributes and repeated tags at many paths.
  std::string xml = "<r>";
  for (int i = 0; i < 20; ++i) {
    xml += "<s id=\"" + std::to_string(i) + "\"><t><u>v</u></t>";
    if (i % 2 == 0) xml += "<t>direct</t>";
    if (i % 3 == 0) xml += "<w><t><w/></t></w>";
    xml += "</s>";
  }
  xml += "</r>";
  Document doc = MustParse(xml);
  TagTransducer transducer = TagTransducer::Build(doc);
  ExtendedDeweyStore store = ExtendedDeweyStore::Build(doc, transducer);
  XTagId root_tag = doc.node(doc.root()).tag;
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    std::vector<XTagId> decoded = ExtendedDeweyStore::DecodeTagPath(
        transducer, root_tag, store.label(id));
    ASSERT_EQ(decoded.size(), static_cast<size_t>(doc.node(id).depth) + 1);
    XTagId own = doc.node(id).kind == xml::NodeKind::kText
                     ? transducer.text_tag()
                     : doc.node(id).tag;
    EXPECT_EQ(decoded.back(), own);
    EXPECT_EQ(decoded.front(), root_tag);
  }
}

}  // namespace
}  // namespace lotusx::labeling
