#include "index/term_index.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <numeric>

#include "common/invariant.h"
#include "common/string_util.h"

namespace lotusx::index {

TermIndex TermIndex::Build(const xml::Document& document) {
  CHECK(document.finalized());
  TermIndex index;
  // One pass over the value nodes interns each distinct term once (term ->
  // dense id) and appends to its raw postings; compression and the
  // completion tries come after, one insert per distinct key.
  struct RawList {
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> frequencies;
    uint64_t collection_frequency = 0;
  };
  std::unordered_map<std::string, uint32_t, TermHash, std::equal_to<>> ids;
  std::vector<const std::string*> terms;  // id -> term; map keys are stable
  std::vector<RawList> raw;
  // Summed term frequency per (owner tag, term id), keyed tag << 32 | id.
  std::unordered_map<uint64_t, uint64_t> tag_weights;

  // A value node's tokens, lowercased and laid end to end in one reused
  // buffer; `spans` holds each token's (offset, length) in it.
  std::string text;
  std::vector<std::pair<size_t, size_t>> spans;
  std::vector<std::string_view> tokens;
  // Tokenizes exactly as TokenizeKeywords; `value` ends any open token,
  // as the separator ContentString puts between text children does.
  auto tokenize = [&](std::string_view value) {
    size_t start = text.size();
    for (char c : value) {
      const auto byte = static_cast<unsigned char>(c);
      if (std::isalnum(byte)) {
        text += static_cast<char>(std::tolower(byte));
        continue;
      }
      if (text.size() > start) {
        spans.emplace_back(start, text.size() - start);
        start = text.size();
      }
    }
    if (text.size() > start) spans.emplace_back(start, text.size() - start);
  };

  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    const xml::Document::Node& node = document.node(id);
    text.clear();
    spans.clear();
    if (node.kind == xml::NodeKind::kElement) {
      for (xml::NodeId child = node.first_child; child != xml::kInvalidNodeId;
           child = document.node(child).next_sibling) {
        if (document.node(child).kind == xml::NodeKind::kText) {
          tokenize(document.Value(child));
        }
      }
    } else if (node.kind == xml::NodeKind::kAttribute) {
      tokenize(document.Value(id));
    } else {
      continue;
    }
    if (spans.empty()) continue;
    ++index.num_value_nodes_;
    // Views into `text` are taken only now: appends may have moved it.
    tokens.clear();
    for (const auto& [offset, length] : spans) {
      tokens.emplace_back(text.data() + offset, length);
    }
    std::sort(tokens.begin(), tokens.end());
    const uint64_t tag_key = static_cast<uint64_t>(
                                 static_cast<uint32_t>(node.tag))
                             << 32;
    for (size_t i = 0; i < tokens.size();) {
      size_t run_end = i + 1;
      while (run_end < tokens.size() && tokens[run_end] == tokens[i]) {
        ++run_end;
      }
      const auto tf = static_cast<uint32_t>(run_end - i);
      auto it = ids.find(tokens[i]);
      if (it == ids.end()) {
        it = ids.emplace(std::string(tokens[i]),
                         static_cast<uint32_t>(terms.size()))
                 .first;
        terms.push_back(&it->first);
        raw.emplace_back();
      }
      RawList& list = raw[it->second];
      list.nodes.push_back(static_cast<uint32_t>(id));
      list.frequencies.push_back(tf);
      list.collection_frequency += tf;
      tag_weights[tag_key | it->second] += tf;
      i = run_end;
    }
  }

  // Ids in lexicographic term order: every trie receives its keys sorted,
  // so each new child lands at the end of its parent's children.
  std::vector<uint32_t> order(terms.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return *terms[a] < *terms[b];
  });
  std::vector<uint32_t> rank(terms.size());
  index.postings_.reserve(terms.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    const uint32_t term_id = order[r];
    rank[term_id] = r;
    RawList& list = raw[term_id];
    index.term_trie_.Insert(*terms[term_id], list.collection_frequency);
    PostingList compressed;
    compressed.postings =
        PostingBlocks::FromSorted(list.nodes, list.frequencies);
    compressed.collection_frequency = list.collection_frequency;
    index.postings_.emplace(*terms[term_id], std::move(compressed));
  }

  // Each (tag, term) once into its tag trie, grouped by tag, terms sorted.
  struct TagTerm {
    uint32_t tag;
    uint32_t rank;
    uint64_t weight;
  };
  std::vector<TagTerm> tag_terms;
  tag_terms.reserve(tag_weights.size());
  for (const auto& [key, weight] : tag_weights) {
    tag_terms.push_back({static_cast<uint32_t>(key >> 32),
                         rank[static_cast<uint32_t>(key)], weight});
  }
  std::sort(tag_terms.begin(), tag_terms.end(),
            [](const TagTerm& a, const TagTerm& b) {
              return a.tag != b.tag ? a.tag < b.tag : a.rank < b.rank;
            });
  Trie* trie = nullptr;
  for (size_t i = 0; i < tag_terms.size(); ++i) {
    if (i == 0 || tag_terms[i].tag != tag_terms[i - 1].tag) {
      trie = &index.tag_tries_[static_cast<xml::TagId>(tag_terms[i].tag)];
    }
    trie->Insert(*terms[order[tag_terms[i].rank]], tag_terms[i].weight);
  }
  return index;
}

const PostingBlocks* TermIndex::PostingsFor(std::string_view term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? nullptr : &it->second.postings;
}

std::vector<xml::NodeId> TermIndex::DecodePostings(
    std::string_view term) const {
  const PostingBlocks* blocks = PostingsFor(term);
  if (blocks == nullptr) return {};
  std::vector<uint32_t> keys = blocks->DecodeKeys();
  return {keys.begin(), keys.end()};
}

uint32_t TermIndex::DocFrequency(std::string_view term) const {
  const PostingBlocks* blocks = PostingsFor(term);
  return blocks == nullptr ? 0 : blocks->size();
}

uint64_t TermIndex::CollectionFrequency(std::string_view term) const {
  auto it = postings_.find(term);
  return it == postings_.end() ? 0 : it->second.collection_frequency;
}

uint32_t TermIndex::TermFrequencyIn(std::string_view term,
                                    xml::NodeId node) const {
  const PostingBlocks* blocks = PostingsFor(term);
  if (blocks == nullptr || node < 0) return 0;
  return blocks->PayloadFor(static_cast<uint32_t>(node));
}

const Trie* TermIndex::term_trie_for_tag(xml::TagId tag) const {
  auto it = tag_tries_.find(tag);
  return it == tag_tries_.end() ? nullptr : &it->second;
}

Status TermIndex::ValidateInvariants(const xml::Document& document,
                                     bool deep) const {
  for (const auto& [term, list] : postings_) {
    LOTUSX_ENSURE(!term.empty()) << "empty term";
    LOTUSX_RETURN_IF_ERROR(list.postings.ValidateInvariants());
    LOTUSX_ENSURE(!list.postings.empty())
        << "term '" << term << "' has no postings";
    LOTUSX_ENSURE(list.postings.has_payload())
        << "term '" << term << "' postings missing frequency payload";
    std::vector<uint32_t> nodes = list.postings.DecodeKeys();
    std::vector<uint32_t> frequencies = list.postings.DecodePayloads();
    uint64_t total = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      xml::NodeId id = static_cast<xml::NodeId>(nodes[i]);
      LOTUSX_ENSURE(id >= 0 && id < document.num_nodes())
          << "term '" << term << "' node " << id;
      LOTUSX_ENSURE(document.node(id).kind != xml::NodeKind::kText)
          << "term '" << term << "' posted on text node " << id;
      LOTUSX_ENSURE(frequencies[i] > 0)
          << "term '" << term << "' zero frequency at node " << id;
      total += frequencies[i];
    }
    LOTUSX_ENSURE(list.collection_frequency == total)
        << "term '" << term << "' collection frequency "
        << list.collection_frequency << " actual " << total;
    LOTUSX_ENSURE(term_trie_.WeightOf(term) == list.collection_frequency)
        << "term '" << term << "' trie weight "
        << term_trie_.WeightOf(term);
  }
  LOTUSX_RETURN_IF_ERROR(term_trie_.ValidateInvariants());
  LOTUSX_ENSURE(term_trie_.num_keys() == postings_.size())
      << "term trie holds " << term_trie_.num_keys() << " keys, postings "
      << postings_.size();
  for (const auto& [tag, trie] : tag_tries_) {
    LOTUSX_ENSURE(tag >= 0 && tag < document.num_tags())
        << "tag trie for dead tag " << tag;
    LOTUSX_RETURN_IF_ERROR(trie.ValidateInvariants());
  }

  if (!deep) return Status::OK();
  // Recount from the document, exactly as Build does.
  uint32_t value_nodes = 0;
  std::map<std::string, std::map<xml::NodeId, uint32_t>> expected;
  for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
    const xml::Document::Node& node = document.node(id);
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
    ++value_nodes;
    for (std::string& token : tokens) ++expected[std::move(token)][id];
  }
  LOTUSX_ENSURE(num_value_nodes_ == value_nodes)
      << "num_value_nodes " << num_value_nodes_ << " actual " << value_nodes;
  LOTUSX_ENSURE(postings_.size() == expected.size())
      << "index holds " << postings_.size() << " terms, document has "
      << expected.size();
  for (const auto& [term, occurrences] : expected) {
    auto it = postings_.find(term);
    LOTUSX_ENSURE(it != postings_.end()) << "missing term '" << term << "'";
    const PostingList& list = it->second;
    std::vector<uint32_t> nodes = list.postings.DecodeKeys();
    std::vector<uint32_t> frequencies = list.postings.DecodePayloads();
    LOTUSX_ENSURE(nodes.size() == occurrences.size())
        << "term '" << term << "' doc frequency " << nodes.size()
        << " actual " << occurrences.size();
    size_t i = 0;
    for (const auto& [id, tf] : occurrences) {
      LOTUSX_ENSURE(nodes[i] == static_cast<uint32_t>(id) &&
                    frequencies[i] == tf)
          << "term '" << term << "' posting " << i << " disagrees with "
          << "recount at node " << id;
      ++i;
    }
  }
  return Status::OK();
}

size_t TermIndex::MemoryUsage() const {
  size_t bytes = term_trie_.MemoryUsage();
  for (const auto& [tag, trie] : tag_tries_) bytes += trie.MemoryUsage();
  for (const auto& [term, list] : postings_) {
    bytes += term.capacity() + list.postings.MemoryUsage() + 64;
  }
  return bytes;
}

void TermIndex::EncodeTo(Encoder* encoder) const {
  encoder->PutVarint32(num_value_nodes_);
  // Terms in sorted order for a deterministic byte image.
  std::vector<const std::string*> terms;
  terms.reserve(postings_.size());
  for (const auto& [term, list] : postings_) terms.push_back(&term);
  std::sort(terms.begin(), terms.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  encoder->PutVarint64(terms.size());
  for (const std::string* term : terms) {
    const PostingList& list = postings_.at(*term);
    encoder->PutString(*term);
    list.postings.EncodeTo(encoder);
  }
  term_trie_.EncodeTo(encoder);
  encoder->PutVarint64(tag_tries_.size());
  std::vector<xml::TagId> tags;
  for (const auto& [tag, trie] : tag_tries_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end());
  for (xml::TagId tag : tags) {
    encoder->PutVarint32(static_cast<uint32_t>(tag));
    tag_tries_.at(tag).EncodeTo(encoder);
  }
}

StatusOr<TermIndex> TermIndex::DecodeFrom(Decoder* decoder) {
  TermIndex index;
  LOTUSX_RETURN_IF_ERROR(decoder->GetVarint32(&index.num_value_nodes_));
  uint64_t term_count = 0;
  LOTUSX_RETURN_IF_ERROR(decoder->GetVarint64(&term_count));
  for (uint64_t i = 0; i < term_count; ++i) {
    std::string term;
    LOTUSX_RETURN_IF_ERROR(decoder->GetString(&term));
    PostingList list;
    LOTUSX_ASSIGN_OR_RETURN(list.postings,
                            PostingBlocks::DecodeFrom(decoder));
    if (list.postings.empty() || !list.postings.has_payload()) {
      return Status::Corruption("term posting list empty or without "
                                "frequencies: " +
                                term);
    }
    for (uint32_t tf : list.postings.DecodePayloads()) {
      list.collection_frequency += tf;
    }
    index.postings_.emplace(std::move(term), std::move(list));
  }
  LOTUSX_ASSIGN_OR_RETURN(index.term_trie_, Trie::DecodeFrom(decoder));
  uint64_t trie_count = 0;
  LOTUSX_RETURN_IF_ERROR(decoder->GetVarint64(&trie_count));
  for (uint64_t i = 0; i < trie_count; ++i) {
    uint32_t tag = 0;
    LOTUSX_RETURN_IF_ERROR(decoder->GetVarint32(&tag));
    LOTUSX_ASSIGN_OR_RETURN(Trie trie, Trie::DecodeFrom(decoder));
    index.tag_tries_.emplace(static_cast<xml::TagId>(tag), std::move(trie));
  }
  return index;
}

}  // namespace lotusx::index
