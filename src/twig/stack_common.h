#ifndef LOTUSX_TWIG_STACK_COMMON_H_
#define LOTUSX_TWIG_STACK_COMMON_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "common/invariant.h"
#include "twig/candidate_stream.h"
#include "twig/path_merge.h"
#include "twig/twig_query.h"
#include "xml/dom.h"

namespace lotusx::twig::internal_stack {

/// Stack entry of the holistic algorithms (TwigStack / PathStack). The
/// parent pointer records how much of the parent query node's stack
/// contained this element at push time: entries 0..parent_top (inclusive)
/// all contain it.
struct StackEntry {
  xml::NodeId element = xml::kInvalidNodeId;
  int parent_top = -1;
};

/// Per-query-node stack.
using Stack = std::vector<StackEntry>;

/// Pops entries whose subtree ends before `next_start` (they can contain
/// nothing that starts later).
inline void CleanStack(const xml::Document& document, Stack* stack,
                       xml::NodeId next_start) {
  while (!stack->empty() &&
         document.node(stack->back().element).subtree_end < next_start) {
    stack->pop_back();
  }
}

/// Head of `stream`, or +infinity (kStreamEnd) once it is exhausted.
inline constexpr xml::NodeId kStreamEnd =
    std::numeric_limits<xml::NodeId>::max();
inline xml::NodeId HeadOrEnd(const CandidateStream& stream) {
  return stream.AtEnd() ? kStreamEnd : stream.Key();
}

/// Discards `element` (the head of `stream`, or the element just read
/// from it) whose parent query node's stack is empty, jumping `stream`
/// to max(element + 1, head of `parent_stream`) — to the end when that
/// stream is exhausted. No open parent entry contains an element before
/// the parent's head, and every parent element pushed later starts at or
/// after that head, so no element of `stream` before it can ever be
/// pushed. "At or after": a query repeating a tag (//a//a) may push one
/// element on both stacks.
inline void SkipPastUnreachable(CandidateStream* stream, xml::NodeId element,
                                const CandidateStream& parent_stream) {
  stream->SeekGE(std::max(element + 1, HeadOrEnd(parent_stream)));
}

/// Pushes `element` onto `stack`, recording how much of `parent_stack`
/// (null for the query root) contained it at push time. Invariant-checking
/// builds verify the stack discipline the holistic algorithms rely on:
/// entries on one stack are strictly nested in document order (so the push
/// must follow a CleanStack for `element`), and the recorded parent entry
/// contains the element — entries below it then do too, by nesting.
inline void PushStackEntry(const xml::Document& document, Stack* stack,
                           xml::NodeId element, const Stack* parent_stack) {
  int parent_top =
      parent_stack == nullptr ? -1
                              : static_cast<int>(parent_stack->size()) - 1;
  LOTUSX_DCHECK(element >= 0 && element < document.num_nodes())
      << "push of invalid element " << element;
  if (!stack->empty()) {
    const StackEntry& top = stack->back();
    LOTUSX_DCHECK_LT(top.element, element)
        << "push breaks document order on stack";
    LOTUSX_DCHECK_LE(element, document.node(top.element).subtree_end)
        << "element " << element << " not nested in stack top "
        << top.element << " (missing CleanStack?)";
  }
  if (parent_top >= 0) {
    // The same element may sit atop the parent stack when the query
    // repeats a tag (//a//a), hence <= rather than <.
    const StackEntry& up = (*parent_stack)[static_cast<size_t>(parent_top)];
    LOTUSX_DCHECK_LE(up.element, element)
        << "parent stack top " << up.element << " after element " << element;
    LOTUSX_DCHECK_LE(element, document.node(up.element).subtree_end)
        << "parent stack top " << up.element << " does not contain "
        << element;
  }
  stack->push_back(StackEntry{element, parent_top});
}

/// Expands every root-to-leaf solution ending at `stacks[path.back()]`'s
/// entry `leaf_index`, appending one row (aligned with `path`, root
/// first) per solution to `solutions` (stride must equal path.size()).
/// Parent-child edges are verified by depth (stack entries are ancestors
/// of the leaf element, so depth equality implies parenthood). `scratch`
/// is caller-owned working space, resized here and reused across calls so
/// the per-leaf emission allocates nothing once warm.
void EmitPathSolutions(const xml::Document& document, const TwigQuery& query,
                       const std::vector<QueryNodeId>& path,
                       const std::vector<Stack>& stacks, int leaf_index,
                       std::vector<xml::NodeId>* scratch,
                       SolutionTable* solutions);

}  // namespace lotusx::twig::internal_stack

#endif  // LOTUSX_TWIG_STACK_COMMON_H_
