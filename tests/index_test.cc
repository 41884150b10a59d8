#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "datagen/datagen.h"
#include "index/dataguide.h"
#include "index/indexed_document.h"
#include "index/tag_streams.h"
#include "index/term_index.h"
#include "tests/test_util.h"

namespace lotusx::index {
namespace {

using lotusx::testing::MustIndex;
using lotusx::testing::MustParse;
using xml::Document;
using xml::NodeId;

constexpr std::string_view kSample = R"(<dblp>
  <article key="a1">
    <author>jiaheng lu</author>
    <author>chunbin lin</author>
    <title>position aware search</title>
    <year>2012</year>
  </article>
  <book key="b1">
    <author>tok wang ling</author>
    <title>xml twig search</title>
  </book>
</dblp>)";

// -------------------------------------------------------------- DataGuide

TEST(DataGuideTest, OnePathNodePerDistinctPath) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  // Paths: /dblp, /dblp/article, /dblp/article/@key, /dblp/article/author,
  // /dblp/article/title, /dblp/article/year, /dblp/book, /dblp/book/@key,
  // /dblp/book/author, /dblp/book/title -> 10.
  EXPECT_EQ(guide.num_paths(), 10);
}

TEST(DataGuideTest, CountsOccurrences) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  PathId article = guide.FindChild(guide.root(), doc.FindTag("article"));
  ASSERT_NE(article, kInvalidPathId);
  EXPECT_EQ(guide.node(article).count, 1u);
  PathId author = guide.FindChild(article, doc.FindTag("author"));
  ASSERT_NE(author, kInvalidPathId);
  EXPECT_EQ(guide.node(author).count, 2u);
  EXPECT_EQ(guide.node(author).text_count, 2u);
}

TEST(DataGuideTest, PathOfMapsNodesToPaths) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    if (doc.node(id).kind == xml::NodeKind::kText) {
      EXPECT_EQ(guide.PathOf(id), kInvalidPathId);
      continue;
    }
    PathId path = guide.PathOf(id);
    ASSERT_NE(path, kInvalidPathId);
    EXPECT_EQ(guide.node(path).tag, doc.node(id).tag);
    EXPECT_EQ(guide.node(path).depth, doc.node(id).depth);
  }
}

TEST(DataGuideTest, PathsWithTagFindsAllContexts) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  // "author" occurs under article and under book: two distinct paths.
  EXPECT_EQ(guide.PathsWithTag(doc.FindTag("author")).size(), 2u);
  EXPECT_EQ(guide.PathsWithTag(doc.FindTag("dblp")).size(), 1u);
  EXPECT_TRUE(guide.PathsWithTag(xml::kInvalidTagId).empty());
}

TEST(DataGuideTest, ChildAndDescendantTags) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  PathId root = guide.root();
  std::vector<xml::TagId> child_tags = guide.ChildTags(root);
  EXPECT_EQ(child_tags.size(), 2u);  // article, book
  const std::vector<xml::TagId>& descendants = guide.DescendantTags(root);
  // article, book, @key, author, title, year.
  EXPECT_EQ(descendants.size(), 6u);
  EXPECT_TRUE(std::is_sorted(descendants.begin(), descendants.end()));
}

TEST(DataGuideTest, DescendantCountsAggregate) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  // Three author elements below the root in total.
  EXPECT_EQ(guide.DescendantTagCount(guide.root(), doc.FindTag("author")),
            3u);
  EXPECT_EQ(guide.ChildTagCount(guide.root(), doc.FindTag("article")), 1u);
  EXPECT_EQ(guide.ChildTagCount(guide.root(), doc.FindTag("author")), 0u);
}

TEST(DataGuideTest, PathString) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  PathId article = guide.FindChild(guide.root(), doc.FindTag("article"));
  PathId author = guide.FindChild(article, doc.FindTag("author"));
  EXPECT_EQ(guide.PathString(doc, author), "/dblp/article/author");
}

TEST(DataGuideTest, PersistenceRoundTrip) {
  Document doc = MustParse(kSample);
  DataGuide guide = DataGuide::Build(doc);
  std::string buffer;
  Encoder encoder(&buffer);
  guide.EncodeTo(&encoder);
  Decoder decoder(buffer);
  auto decoded = DataGuide::DecodeFrom(&decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_paths(), guide.num_paths());
  for (PathId p = 0; p < guide.num_paths(); ++p) {
    EXPECT_EQ(decoded->node(p).tag, guide.node(p).tag);
    EXPECT_EQ(decoded->node(p).count, guide.node(p).count);
    EXPECT_EQ(decoded->node(p).text_count, guide.node(p).text_count);
  }
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    EXPECT_EQ(decoded->PathOf(id), guide.PathOf(id));
  }
}

// ------------------------------------------------------------- TagStreams

TEST(TagStreamsTest, StreamsAreDocumentOrderedAndComplete) {
  Document doc = MustParse(kSample);
  TagStreams streams = TagStreams::Build(doc);
  uint64_t total = 0;
  for (xml::TagId tag = 0; tag < doc.num_tags(); ++tag) {
    std::vector<NodeId> stream = streams.Decode(tag);
    EXPECT_EQ(stream.size(), streams.count(tag));
    total += stream.size();
    for (size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(doc.node(stream[i]).tag, tag);
      if (i > 0) {
        EXPECT_LT(stream[i - 1], stream[i]);
      }
    }
  }
  // Every non-text node appears in exactly one stream.
  uint64_t non_text = 0;
  for (NodeId id = 0; id < doc.num_nodes(); ++id) {
    if (doc.node(id).kind != xml::NodeKind::kText) ++non_text;
  }
  EXPECT_EQ(total, non_text);
}

TEST(TagStreamsTest, OutOfRangeTagIsEmpty) {
  Document doc = MustParse(kSample);
  TagStreams streams = TagStreams::Build(doc);
  EXPECT_TRUE(streams.blocks(xml::kInvalidTagId).empty());
  EXPECT_TRUE(streams.blocks(999).empty());
  EXPECT_EQ(streams.count(999), 0u);
}

TEST(TagStreamsTest, PersistenceRoundTrip) {
  Document doc = MustParse(kSample);
  TagStreams streams = TagStreams::Build(doc);
  std::string buffer;
  Encoder encoder(&buffer);
  streams.EncodeTo(&encoder);
  Decoder decoder(buffer);
  auto decoded = TagStreams::DecodeFrom(&decoder);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_tags(), streams.num_tags());
  for (xml::TagId tag = 0; tag < streams.num_tags(); ++tag) {
    EXPECT_EQ(streams.Decode(tag), decoded->Decode(tag));
  }
}

// -------------------------------------------------------------- TermIndex

TEST(TermIndexTest, PostingsFindValueNodes) {
  Document doc = MustParse(kSample);
  TermIndex terms = TermIndex::Build(doc);
  // "lu" occurs in one author; "xml" in one title; "search" in two titles.
  EXPECT_EQ(terms.DecodePostings("lu").size(), 1u);
  EXPECT_EQ(terms.DecodePostings("xml").size(), 1u);
  EXPECT_EQ(terms.DecodePostings("search").size(), 2u);
  EXPECT_TRUE(terms.DecodePostings("absent").empty());
  EXPECT_EQ(terms.PostingsFor("absent"), nullptr);
  for (NodeId id : terms.DecodePostings("search")) {
    EXPECT_EQ(doc.TagName(id), "title");
  }
}

TEST(TermIndexTest, TermsAreLowercasedTokens) {
  Document doc = MustParse("<a><b>Hello, WORLD-42!</b></a>");
  TermIndex terms = TermIndex::Build(doc);
  EXPECT_EQ(terms.DocFrequency("hello"), 1u);
  EXPECT_EQ(terms.DocFrequency("world"), 1u);
  EXPECT_EQ(terms.DocFrequency("42"), 1u);
  EXPECT_EQ(terms.DocFrequency("Hello"), 0u);  // queries must be lowercase
}

TEST(TermIndexTest, AttributesAreValueNodes) {
  Document doc = MustParse(kSample);
  TermIndex terms = TermIndex::Build(doc);
  ASSERT_EQ(terms.DecodePostings("a1").size(), 1u);
  NodeId attr = terms.DecodePostings("a1")[0];
  EXPECT_EQ(doc.node(attr).kind, xml::NodeKind::kAttribute);
  EXPECT_EQ(doc.TagName(attr), "@key");
}

TEST(TermIndexTest, FrequenciesAndIdfInputs) {
  Document doc = MustParse("<r><t>x x x y</t><t>x z</t></r>");
  TermIndex terms = TermIndex::Build(doc);
  EXPECT_EQ(terms.num_value_nodes(), 2u);
  EXPECT_EQ(terms.DocFrequency("x"), 2u);
  EXPECT_EQ(terms.CollectionFrequency("x"), 4u);
  std::vector<NodeId> postings = terms.DecodePostings("x");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(terms.TermFrequencyIn("x", postings[0]), 3u);
  EXPECT_EQ(terms.TermFrequencyIn("x", postings[1]), 1u);
  EXPECT_EQ(terms.TermFrequencyIn("y", postings[1]), 0u);
}

TEST(TermIndexTest, LookupByNonTerminatedStringView) {
  Document doc = MustParse("<r><t>x x x y</t><t>x z</t></r>");
  TermIndex terms = TermIndex::Build(doc);
  // A view of "x" inside "xyz": no terminator after the term.
  const std::string buffer = "xyz";
  std::string_view x(buffer.data(), 1);
  ASSERT_NE(terms.PostingsFor(x), nullptr);
  EXPECT_EQ(terms.PostingsFor(x), terms.PostingsFor("x"));
  EXPECT_EQ(terms.DocFrequency(x), 2u);
  EXPECT_EQ(terms.CollectionFrequency(x), 4u);
  EXPECT_EQ(terms.TermFrequencyIn(x, terms.DecodePostings("x")[0]), 3u);
  EXPECT_EQ(terms.PostingsFor(std::string_view(buffer.data(), 2)), nullptr);
  EXPECT_EQ(terms.CollectionFrequency(std::string_view(buffer.data(), 2)),
            0u);
}

TEST(TermIndexTest, PerTagTries) {
  Document doc = MustParse(kSample);
  TermIndex terms = TermIndex::Build(doc);
  const Trie* title_trie = terms.term_trie_for_tag(doc.FindTag("title"));
  ASSERT_NE(title_trie, nullptr);
  EXPECT_TRUE(title_trie->Contains("xml"));
  EXPECT_FALSE(title_trie->Contains("jiaheng"));
  const Trie* author_trie = terms.term_trie_for_tag(doc.FindTag("author"));
  ASSERT_NE(author_trie, nullptr);
  EXPECT_TRUE(author_trie->Contains("jiaheng"));
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("dblp")), nullptr);
}

TEST(TermIndexTest, PersistenceRoundTrip) {
  Document doc = MustParse(kSample);
  TermIndex terms = TermIndex::Build(doc);
  std::string buffer;
  Encoder encoder(&buffer);
  terms.EncodeTo(&encoder);
  Decoder decoder(buffer);
  auto decoded = TermIndex::DecodeFrom(&decoder);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_terms(), terms.num_terms());
  EXPECT_EQ(decoded->num_value_nodes(), terms.num_value_nodes());
  EXPECT_EQ(decoded->DocFrequency("search"), terms.DocFrequency("search"));
  EXPECT_EQ(decoded->CollectionFrequency("search"),
            terms.CollectionFrequency("search"));
  EXPECT_EQ(decoded->term_trie().Complete("s", 5),
            terms.term_trie().Complete("s", 5));
}

// ------------------------------------------------------ TermIndex::Build

// The per-occurrence build the one-pass TermIndex::Build replaced, kept as
// its differential oracle: ContentString per value node, a std::map of
// term frequencies, and one global plus one tag trie insert per (term,
// node) occurrence.
struct OracleTermIndex {
  struct RawList {
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> frequencies;
    uint64_t collection_frequency = 0;
  };
  std::map<std::string, RawList> postings;
  uint32_t num_value_nodes = 0;
  Trie term_trie;
  std::map<xml::TagId, Trie> tag_tries;
};

OracleTermIndex BuildOracle(const Document& document) {
  OracleTermIndex oracle;
  for (NodeId id = 0; id < document.num_nodes(); ++id) {
    const Document::Node& node = document.node(id);
    std::string content;
    if (node.kind == xml::NodeKind::kElement) {
      content = document.ContentString(id);
      if (content.empty()) continue;
    } else if (node.kind == xml::NodeKind::kAttribute) {
      content = std::string(document.Value(id));
    } else {
      continue;
    }
    std::vector<std::string> tokens = TokenizeKeywords(content);
    if (tokens.empty()) continue;
    ++oracle.num_value_nodes;
    std::map<std::string, uint32_t> frequencies;
    for (std::string& token : tokens) ++frequencies[std::move(token)];
    for (const auto& [term, tf] : frequencies) {
      OracleTermIndex::RawList& list = oracle.postings[term];
      list.nodes.push_back(static_cast<uint32_t>(id));
      list.frequencies.push_back(tf);
      list.collection_frequency += tf;
      oracle.term_trie.Insert(term, tf);
      oracle.tag_tries[node.tag].Insert(term, tf);
    }
  }
  return oracle;
}

// `actual` holds the same keys, weights and shape as `expected`, and
// completes every one- and two-byte prefix of its keys alike.
void ExpectSameTrie(const Trie& actual, const Trie& expected) {
  std::vector<Completion> keys = expected.Enumerate("");
  EXPECT_EQ(actual.Enumerate(""), keys);
  EXPECT_EQ(actual.num_keys(), expected.num_keys());
  EXPECT_EQ(actual.num_nodes(), expected.num_nodes());
  EXPECT_EQ(actual.MemoryUsage(), expected.MemoryUsage());
  EXPECT_TRUE(actual.ValidateInvariants().ok());
  std::set<std::string> prefixes;
  for (const Completion& key : keys) {
    for (size_t length = 1; length <= 2 && length <= key.key.size();
         ++length) {
      prefixes.insert(key.key.substr(0, length));
    }
  }
  for (const std::string& prefix : prefixes) {
    EXPECT_EQ(actual.Complete(prefix, 10), expected.Complete(prefix, 10))
        << "prefix '" << prefix << "'";
  }
}

void ExpectMatchesOracle(const Document& document) {
  const TermIndex index = TermIndex::Build(document);
  const OracleTermIndex oracle = BuildOracle(document);
  EXPECT_EQ(index.num_terms(), oracle.postings.size());
  EXPECT_EQ(index.num_value_nodes(), oracle.num_value_nodes);
  for (const auto& [term, list] : oracle.postings) {
    const PostingBlocks* blocks = index.PostingsFor(term);
    ASSERT_NE(blocks, nullptr) << "missing term '" << term << "'";
    EXPECT_EQ(blocks->DecodeKeys(), list.nodes) << "term '" << term << "'";
    EXPECT_EQ(blocks->DecodePayloads(), list.frequencies)
        << "term '" << term << "'";
    EXPECT_EQ(index.CollectionFrequency(term), list.collection_frequency)
        << "term '" << term << "'";
  }
  {
    SCOPED_TRACE("global trie");
    ExpectSameTrie(index.term_trie(), oracle.term_trie);
  }
  for (xml::TagId tag = 0; tag < document.num_tags(); ++tag) {
    SCOPED_TRACE("tag trie " + std::string(document.tag_name(tag)));
    auto it = oracle.tag_tries.find(tag);
    const Trie* trie = index.term_trie_for_tag(tag);
    if (it == oracle.tag_tries.end()) {
      EXPECT_EQ(trie, nullptr);
      continue;
    }
    ASSERT_NE(trie, nullptr);
    ExpectSameTrie(*trie, it->second);
  }
  Status status = index.ValidateInvariants(document, /*deep=*/true);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(TermIndexBuildTest, GeneratedCorporaMatchThePerOccurrenceBuild) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      SCOPED_TRACE("dblp");
      ExpectMatchesOracle(datagen::GenerateDblpWithApproxNodes(seed, 3000));
    }
    {
      SCOPED_TRACE("xmark");
      ExpectMatchesOracle(datagen::GenerateXmarkWithApproxNodes(seed, 3000));
    }
    {
      SCOPED_TRACE("treebank");
      ExpectMatchesOracle(
          datagen::GenerateTreebankWithApproxNodes(seed, 3000));
    }
    {
      SCOPED_TRACE("store");
      ExpectMatchesOracle(datagen::GenerateStoreWithApproxNodes(seed, 3000));
    }
  }
}

TEST(TermIndexBuildTest, EdgeCasesMatchThePerOccurrenceBuild) {
  // Text split by a child element, whitespace-only and punctuation-only
  // content, entities and CDATA, bytes >= 0x80 (separators), case and
  // digits, attribute values, a term repeated within one node, and one
  // term under several tags.
  Document doc = MustParse(
      "<root>"
      "<t>ab<x/>cd</t>"
      "<w>  \n\t </w>"
      "<p>!!! -- ...;</p>"
      "<e>Tom &amp; Jerry &lt;3 <![CDATA[raw<data>&here]]></e>"
      "<h>caf\xc3\xa9s na\xc3\xafve</h>"
      "<u>ABC abc Abc 42 x42Y</u>"
      "<a k=\"Key VALUE k\" q=\"--\">text</a>"
      "<r>go go stop go</r>"
      "<m>shared</m><n>shared shared</n><n k=\"shared\"/>"
      "</root>");
  ExpectMatchesOracle(doc);
  TermIndex terms = TermIndex::Build(doc);
  EXPECT_EQ(terms.DocFrequency("ab"), 1u);
  EXPECT_EQ(terms.DocFrequency("cd"), 1u);
  EXPECT_EQ(terms.DocFrequency("abcd"), 0u);
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("w")), nullptr);
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("p")), nullptr);
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("@q")), nullptr);
  EXPECT_EQ(terms.DocFrequency("raw"), 1u);
  EXPECT_EQ(terms.DocFrequency("caf"), 1u);
  EXPECT_EQ(terms.DocFrequency("ve"), 1u);
  EXPECT_EQ(terms.CollectionFrequency("abc"), 3u);
  EXPECT_EQ(terms.DocFrequency("x42y"), 1u);
  EXPECT_EQ(terms.CollectionFrequency("k"), 1u);
  EXPECT_EQ(terms.TermFrequencyIn("go", terms.DecodePostings("go")[0]), 3u);
  EXPECT_EQ(terms.DocFrequency("shared"), 3u);
  EXPECT_EQ(terms.CollectionFrequency("shared"), 4u);
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("n"))->WeightOf("shared"),
            2u);
  EXPECT_EQ(terms.term_trie_for_tag(doc.FindTag("@k"))->WeightOf("shared"),
            1u);
}

// -------------------------------------------------------- IndexedDocument

TEST(IndexedDocumentTest, BuildsAllComponents) {
  index::IndexedDocument indexed = MustIndex(kSample);
  EXPECT_GT(indexed.dataguide().num_paths(), 0);
  EXPECT_GT(indexed.tag_trie().num_keys(), 0u);
  EXPECT_EQ(indexed.extended_dewey().size(),
            static_cast<size_t>(indexed.document().num_nodes()));
  EXPECT_GT(indexed.build_stats().total_ms, 0.0);
  EXPECT_GT(indexed.build_stats().total_bytes(), 0u);
}

TEST(IndexedDocumentTest, TagTrieWeightsAreCounts) {
  index::IndexedDocument indexed = MustIndex(kSample);
  EXPECT_EQ(indexed.tag_trie().WeightOf("author"), 3u);
  EXPECT_EQ(indexed.tag_trie().WeightOf("article"), 1u);
  EXPECT_EQ(indexed.tag_trie().WeightOf("@key"), 2u);
}

TEST(IndexedDocumentTest, SaveLoadRoundTrip) {
  index::IndexedDocument indexed = MustIndex(kSample);
  std::string path = ::testing::TempDir() + "/lotusx_index_test.ltsx";
  ASSERT_TRUE(indexed.SaveTo(path).ok());
  auto loaded = index::IndexedDocument::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Document& a = indexed.document();
  const Document& b = loaded->document();
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    EXPECT_EQ(a.node(id).kind, b.node(id).kind);
    EXPECT_EQ(a.node(id).parent, b.node(id).parent);
    EXPECT_EQ(a.node(id).subtree_end, b.node(id).subtree_end);
  }
  EXPECT_EQ(loaded->dataguide().num_paths(), indexed.dataguide().num_paths());
  EXPECT_EQ(loaded->terms().num_terms(), indexed.terms().num_terms());
  EXPECT_EQ(loaded->tag_trie().WeightOf("author"), 3u);
  std::remove(path.c_str());
}

TEST(IndexedDocumentTest, LoadRejectsGarbage) {
  std::string path = ::testing::TempDir() + "/lotusx_garbage.ltsx";
  ASSERT_TRUE(WriteStringToFile(path, "not an index at all").ok());
  auto loaded = index::IndexedDocument::LoadFrom(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  std::remove(path.c_str());
}

TEST(IndexedDocumentTest, LoadRejectsTruncation) {
  index::IndexedDocument indexed = MustIndex(kSample);
  std::string path = ::testing::TempDir() + "/lotusx_trunc.ltsx";
  ASSERT_TRUE(indexed.SaveTo(path).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  ASSERT_TRUE(
      WriteStringToFile(path, std::string_view(image).substr(0, image.size() / 2))
          .ok());
  EXPECT_FALSE(index::IndexedDocument::LoadFrom(path).ok());
  std::remove(path.c_str());
}

TEST(IndexedDocumentTest, DecodeRejectsStructurallyInvalidDocuments) {
  // Build document sections by hand to hit each validation branch.
  auto decode = [](const std::string& buffer) {
    Decoder decoder(buffer);
    return DecodeDocument(&decoder).status();
  };
  auto header = [](Encoder* encoder) {
    encoder->PutVarint64(2);  // two tags
    encoder->PutString("a");
    encoder->PutString("@k");
  };
  {
    // Text node as root.
    std::string buffer;
    Encoder encoder(&buffer);
    header(&encoder);
    encoder.PutVarint64(1);
    encoder.PutVarint32(2);  // kText
    encoder.PutVarint32(0);  // no parent
    encoder.PutString("boom");
    EXPECT_TRUE(decode(buffer).IsCorruption());
  }
  {
    // Attribute whose parent is an attribute.
    std::string buffer;
    Encoder encoder(&buffer);
    header(&encoder);
    encoder.PutVarint64(3);
    encoder.PutVarint32(0);  // element root, tag a
    encoder.PutVarint32(0);
    encoder.PutVarint32(0);
    encoder.PutVarint32(1);  // attribute under root
    encoder.PutVarint32(1);
    encoder.PutVarint32(1);
    encoder.PutString("v");
    encoder.PutVarint32(1);  // attribute under the ATTRIBUTE
    encoder.PutVarint32(2);
    encoder.PutVarint32(1);
    encoder.PutString("w");
    EXPECT_TRUE(decode(buffer).IsCorruption());
  }
  {
    // Document-order violation: child appended after its parent closed.
    std::string buffer;
    Encoder encoder(&buffer);
    encoder.PutVarint64(3);
    encoder.PutString("a");
    encoder.PutString("b");
    encoder.PutString("c");
    encoder.PutVarint64(4);
    // a(root), b under a, c under a, then ANOTHER node under b: b's
    // subtree closed when c arrived.
    encoder.PutVarint32(0); encoder.PutVarint32(0); encoder.PutVarint32(0);
    encoder.PutVarint32(0); encoder.PutVarint32(1); encoder.PutVarint32(1);
    encoder.PutVarint32(0); encoder.PutVarint32(1); encoder.PutVarint32(2);
    encoder.PutVarint32(0); encoder.PutVarint32(2); encoder.PutVarint32(2);
    EXPECT_TRUE(decode(buffer).IsCorruption());
  }
  {
    // Self/forward parent reference.
    std::string buffer;
    Encoder encoder(&buffer);
    header(&encoder);
    encoder.PutVarint64(2);
    encoder.PutVarint32(0); encoder.PutVarint32(0); encoder.PutVarint32(0);
    encoder.PutVarint32(0); encoder.PutVarint32(3); encoder.PutVarint32(0);
    EXPECT_TRUE(decode(buffer).IsCorruption());
  }
}

TEST(IndexedDocumentTest, SaveLoadOnGeneratedCorpus) {
  datagen::DblpOptions options;
  options.num_publications = 150;
  index::IndexedDocument indexed(datagen::GenerateDblp(options));
  std::string path = ::testing::TempDir() + "/lotusx_dblp.ltsx";
  ASSERT_TRUE(indexed.SaveTo(path).ok());
  auto loaded = index::IndexedDocument::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->document().num_nodes(), indexed.document().num_nodes());
  // The rebuilt derived indexes must agree with the originals.
  for (xml::TagId tag = 0; tag < indexed.document().num_tags(); ++tag) {
    EXPECT_EQ(loaded->tag_streams().count(tag),
              indexed.tag_streams().count(tag));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lotusx::index
