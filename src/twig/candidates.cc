#include "twig/candidates.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "index/posting_blocks.h"

namespace lotusx::twig {

namespace {

/// The node's "value" under the predicate model: direct-text content for
/// elements, the attribute value for attributes.
std::string NodeValue(const xml::Document& document, xml::NodeId node) {
  if (document.node(node).kind == xml::NodeKind::kAttribute) {
    return std::string(TrimAscii(document.Value(node)));
  }
  return document.ContentString(node);
}

/// K-way leapfrog equality intersection over block cursors: every
/// emitted id is present in all lists. Galloping SeekGE lets selective
/// token lists drag the tag stream forward block-skips at a time.
/// `emit` filters/collects each common id.
template <typename Emit>
void LeapfrogIntersect(std::vector<index::PostingBlocks::Cursor>* cursors,
                       Emit&& emit) {
  uint32_t target = 0;
  for (index::PostingBlocks::Cursor& cursor : *cursors) {
    if (cursor.AtEnd()) return;
    target = std::max(target, cursor.Key());
  }
  while (true) {
    bool all_equal = true;
    for (index::PostingBlocks::Cursor& cursor : *cursors) {
      if (!cursor.SeekGE(target)) return;
      if (cursor.Key() != target) {
        target = cursor.Key();
        all_equal = false;
        break;
      }
    }
    if (!all_equal) continue;
    emit(static_cast<xml::NodeId>(target));
    if (target == UINT32_MAX) return;
    ++target;
  }
}

}  // namespace

bool NodeSatisfies(const index::IndexedDocument& indexed,
                   const TwigQuery& query, QueryNodeId q, xml::NodeId node) {
  const QueryNode& query_node = query.node(q);
  const xml::Document& document = indexed.document();
  const xml::Document::Node& doc_node = document.node(node);
  if (doc_node.kind == xml::NodeKind::kText) return false;
  if (query_node.tag == "*") {
    if (doc_node.kind != xml::NodeKind::kElement) return false;
  } else if (document.TagName(node) != query_node.tag) {
    return false;
  }
  switch (query_node.predicate.op) {
    case ValuePredicate::Op::kNone:
      return true;
    case ValuePredicate::Op::kEquals:
      return NodeValue(document, node) ==
             TrimAscii(query_node.predicate.text);
    case ValuePredicate::Op::kContains: {
      std::vector<std::string> tokens =
          TokenizeKeywords(query_node.predicate.text);
      if (tokens.empty()) return false;
      std::vector<std::string> node_tokens =
          TokenizeKeywords(NodeValue(document, node));
      for (const std::string& token : tokens) {
        if (std::find(node_tokens.begin(), node_tokens.end(), token) ==
            node_tokens.end()) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

CandidateStream OpenCandidates(const index::IndexedDocument& indexed,
                               const TwigQuery& query, QueryNodeId node,
                               EvalContext* ctx) {
  const QueryNode& query_node = query.node(node);
  const xml::Document& document = indexed.document();
  Arena* arena = &ctx->arena;
  index::PostingStats* stats = &ctx->postings;

  // A child-axis query root can only bind the document root: resolve the
  // whole stream to at most that one node.
  if (node == query.root() && query.root_axis() == Axis::kChild) {
    ArenaVector<xml::NodeId> out(arena);
    xml::NodeId root = document.root();
    if (root != xml::kInvalidNodeId &&
        NodeSatisfies(indexed, query, node, root)) {
      out.push_back(root);
    }
    return CandidateStream::FromSpan(out.span());
  }

  const bool wildcard = query_node.tag == "*";
  const index::PostingBlocks* blocks = nullptr;
  if (!wildcard) {
    xml::TagId tag = document.FindTag(query_node.tag);
    if (tag == xml::kInvalidTagId) return {};
    blocks = &indexed.tag_streams().blocks(tag);
  }

  std::vector<std::string> tokens;
  if (query_node.predicate.active()) {
    tokens = TokenizeKeywords(query_node.predicate.text);
    if (tokens.empty()) {
      if (query_node.predicate.op == ValuePredicate::Op::kContains) {
        return {};
      }
      // Equality against a token-free string: verify values directly.
      ArenaVector<xml::NodeId> out(arena);
      std::string_view want = TrimAscii(query_node.predicate.text);
      if (wildcard) {
        for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
          if (document.node(id).kind == xml::NodeKind::kElement &&
              NodeValue(document, id) == want) {
            out.push_back(id);
          }
        }
      } else {
        index::PostingBlocks::Cursor cursor =
            blocks->NewCursor(arena, stats);
        for (; !cursor.AtEnd(); cursor.Next()) {
          auto id = static_cast<xml::NodeId>(cursor.Key());
          if (NodeValue(document, id) == want) out.push_back(id);
        }
      }
      return CandidateStream::FromSpan(out.span());
    }
  }

  if (!tokens.empty()) {
    // Leapfrog-intersect the token posting lists (and the tag stream,
    // when there is one) — the selective lists steer, whole blocks of
    // the wide lists are skipped undecoded.
    std::vector<index::PostingBlocks::Cursor> cursors;
    cursors.reserve(tokens.size() + 1);
    if (!wildcard) cursors.push_back(blocks->NewCursor(arena, stats));
    for (const std::string& token : tokens) {
      const index::PostingBlocks* postings =
          indexed.terms().PostingsFor(token);
      if (postings == nullptr || postings->empty()) return {};
      cursors.push_back(postings->NewCursor(arena, stats));
    }
    const bool verify_equals =
        query_node.predicate.op == ValuePredicate::Op::kEquals;
    std::string_view want = TrimAscii(query_node.predicate.text);
    ArenaVector<xml::NodeId> out(arena);
    LeapfrogIntersect(&cursors, [&](xml::NodeId id) {
      if (wildcard &&
          document.node(id).kind != xml::NodeKind::kElement) {
        return;
      }
      if (verify_equals && NodeValue(document, id) != want) return;
      out.push_back(id);
    });
    return CandidateStream::FromSpan(out.span());
  }

  // No predicate from here on.
  if (wildcard) {
    ArenaVector<xml::NodeId> out(arena);
    for (xml::NodeId id = 0; id < document.num_nodes(); ++id) {
      if (document.node(id).kind == xml::NodeKind::kElement) {
        out.push_back(id);
      }
    }
    return CandidateStream::FromSpan(out.span());
  }
  // Pure tag stream: stream the compressed blocks lazily — the join
  // decides which blocks ever get decoded.
  return CandidateStream::FromBlocks(blocks, arena, stats);
}

std::vector<xml::NodeId> CandidatesFor(const index::IndexedDocument& indexed,
                                       const TwigQuery& query,
                                       QueryNodeId node) {
  EvalContext ctx;
  CandidateStream stream = OpenCandidates(indexed, query, node, &ctx);
  std::vector<xml::NodeId> out;
  out.reserve(stream.count());
  for (; !stream.AtEnd(); stream.Next()) out.push_back(stream.Key());
  return out;
}

}  // namespace lotusx::twig
