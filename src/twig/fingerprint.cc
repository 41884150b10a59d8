#include "twig/fingerprint.h"

#include <cstdio>

namespace lotusx::twig {

namespace {

/// 64-bit FNV-1a over a byte string. Chosen over std::hash for a
/// process-independent result: fingerprints land in slow-query logs and
/// bench baselines, so they must not vary with libstdc++ version or
/// ASLR.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t HashBytes(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Finalizer (splitmix64): FNV alone is weak in its high bits; one mix
/// round spreads structural differences across the whole word so
/// truncated displays (low hex digits) still distinguish shapes.
uint64_t Finalize(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashValue(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

QueryFingerprint FingerprintQuery(const TwigQuery& query,
                                  const EvalOptions& options) {
  // Audit tripwire, same pattern as SearchCacheKey: growing EvalOptions
  // without revisiting this function would silently merge statement rows
  // that differ in the new option. Bump the size AND add the field to
  // the hash below.
  static_assert(sizeof(EvalOptions) == 8,
                "EvalOptions changed; include (or deliberately exclude) the "
                "new field in FingerprintQuery and update the mutation-sweep "
                "test in fingerprint_test.cc");

  QueryFingerprint fp;
  uint64_t h = kFnvOffset;
  h = HashValue(h, static_cast<uint64_t>(query.root_axis()));
  h = HashValue(h, static_cast<uint64_t>(query.size()));
  for (QueryNodeId id = 0; id < query.size(); ++id) {
    const QueryNode& node = query.node(id);
    // Tag bytes with a length prefix so ("ab","c") != ("a","bc").
    h = HashValue(h, node.tag.size());
    h = HashBytes(h, node.tag);
    // Structure: where the node hangs and how. Node ids are insertion
    // order, which AddRoot/AddChild make a stable preorder-compatible
    // encoding — two structurally identical queries built the same way
    // get identical (parent, axis) sequences.
    h = HashValue(h, static_cast<uint64_t>(node.parent));
    h = HashValue(h, static_cast<uint64_t>(node.incoming_axis));
    h = HashValue(h, static_cast<uint64_t>(node.ordered) |
                         (static_cast<uint64_t>(node.is_output) << 1));
    // Predicate *operator* is shape; predicate *text* is a literal.
    h = HashValue(h, static_cast<uint64_t>(node.predicate.op));
    if (node.predicate.active()) {
      fp.literals.push_back(node.predicate.text);
    }
  }
  // Every evaluation option is part of the shape: the same twig under
  // kTwigStack vs kTJFast has different plans, latency, and block
  // behavior, and aggregating them together would hide exactly the
  // regressions the store exists to show.
  h = HashValue(h, static_cast<uint64_t>(options.algorithm));
  h = HashValue(h, static_cast<uint64_t>(options.schema_prune_streams));
  fp.value = Finalize(h);
  if (fp.value == 0) fp.value = 1;  // reserve 0 as "no fingerprint"
  return fp;
}

std::string NormalizedQueryText(const TwigQuery& query) {
  TwigQuery normalized = query;
  for (QueryNodeId id = 0; id < normalized.size(); ++id) {
    const QueryNode& node = normalized.node(id);
    if (node.predicate.active()) {
      normalized.SetPredicate(id, ValuePredicate{node.predicate.op, "?"});
    }
  }
  return normalized.ToString();
}

std::string FormatFingerprint(uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

uint64_t ParseFingerprint(std::string_view text) {
  if (text.size() >= 2 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return 0;
  uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return 0;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

}  // namespace lotusx::twig
