#include "index/term_index.h"

#include <algorithm>
#include <map>

#include "common/invariant.h"
#include "common/string_util.h"

namespace lotusx::index {

TermIndex TermIndex::Build(const xml::Document& document) {
  CHECK(document.finalized());
  TermIndex index;
  // Accumulate raw per-term postings first; compress once complete.
  struct RawList {
    std::vector<uint32_t> nodes;
    std::vector<uint32_t> frequencies;
  };
  std::unordered_map<std::string, RawList> raw;
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
    ++index.num_value_nodes_;
    // Aggregate term frequencies within this value node.
    std::map<std::string, uint32_t> frequencies;
    for (std::string& token : tokens) ++frequencies[std::move(token)];
    for (const auto& [term, tf] : frequencies) {
      RawList& list = raw[term];
      list.nodes.push_back(static_cast<uint32_t>(id));
      list.frequencies.push_back(tf);
      index.term_trie_.Insert(term, tf);
      index.tag_tries_[node.tag].Insert(term, tf);
    }
  }
  index.postings_.reserve(raw.size());
  for (auto& [term, list] : raw) {
    PostingList compressed;
    compressed.postings =
        PostingBlocks::FromSorted(list.nodes, list.frequencies);
    for (uint32_t tf : list.frequencies) {
      compressed.collection_frequency += tf;
    }
    index.postings_.emplace(term, std::move(compressed));
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
