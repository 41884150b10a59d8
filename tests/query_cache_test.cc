#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "lotusx/engine.h"
#include "lotusx/query_cache.h"
#include "twig/query_parser.h"

namespace lotusx {
namespace {

// ------------------------------------------------------------- LruCache

TEST(LruCacheTest, InsertLookup) {
  LruCache<int> cache(2);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", 1);
  ASSERT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*cache.Lookup("a"), 1);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh a
  cache.Insert("c", 3);                   // evicts b
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, InsertRefreshesExistingKey) {
  LruCache<int> cache(2);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Insert("a", 10);  // refresh, not duplicate
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Lookup("a"), 10);
  cache.Insert("c", 3);  // evicts b (a was refreshed)
  EXPECT_EQ(cache.Lookup("b"), nullptr);
}

TEST(LruCacheTest, Clear) {
  LruCache<int> cache(4);
  cache.Insert("a", 1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
}

TEST(LruCacheTest, CapacityOneWorks) {
  LruCache<int> cache(1);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*cache.Lookup("b"), 2);
}

// ------------------------------------------------------ ShardedLruCache

TEST(ShardedLruCacheTest, InsertLookupByValue) {
  ShardedLruCache<int> cache(8);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1);
  std::optional<int> found = cache.Lookup("a");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedLruCacheTest, InsertRefreshesExistingKey) {
  ShardedLruCache<int> cache(8);
  cache.Insert("a", 1);
  cache.Insert("a", 10);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Lookup("a"), 10);
}

TEST(ShardedLruCacheTest, EvictsWithinShards) {
  // 4 entries over 4 shards: per-shard capacity 1, so two keys hashing to
  // one shard evict each other while other shards are untouched.
  ShardedLruCache<int> cache(4, /*num_shards=*/4);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.num_shards(), 4u);
  for (int i = 0; i < 64; ++i) {
    cache.Insert("key" + std::to_string(i), i);
  }
  // Eviction keeps the total at or under the effective capacity.
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, ShardCountClampedToCapacity) {
  ShardedLruCache<int> cache(2, /*num_shards=*/16);
  EXPECT_EQ(cache.num_shards(), 2u);
  EXPECT_EQ(cache.capacity(), 2u);
}

TEST(ShardedLruCacheTest, Clear) {
  ShardedLruCache<int> cache(8);
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(ShardedLruCacheTest, StatsAccumulate) {
  ShardedLruCache<int> cache(8);
  cache.Insert("a", 1);
  cache.Lookup("a");
  cache.Lookup("a");
  cache.Lookup("missing");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ShardedLruCacheTest, RegistryCountersMirrorInstanceStats) {
  // A distinct metric prefix keeps this test independent of the Engine's
  // "lotusx_cache" family (registry counters are process-wide totals).
  metrics::Registry& registry = metrics::Registry::Default();
  ShardedLruCache<int> cache(4, /*num_shards=*/2, &registry,
                             "lotusx_testcache");
  for (int i = 0; i < 16; ++i) {
    cache.Insert("key" + std::to_string(i), i);
  }
  cache.Lookup("key15");
  cache.Lookup("definitely-missing");
  metrics::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("lotusx_testcache_hits_total"),
            cache.hits());
  EXPECT_EQ(snapshot.CounterTotal("lotusx_testcache_misses_total"),
            cache.misses());
  EXPECT_EQ(snapshot.CounterTotal("lotusx_testcache_evictions_total"),
            cache.evictions());
  // 16 inserts into capacity 4 must have evicted something.
  EXPECT_GT(cache.evictions(), 0u);
}

// ------------------------------------------------------ Engine integration

constexpr std::string_view kXml = R"(<dblp>
  <article><author>lu</author><title>one</title></article>
  <article><author>lin</author><title>two</title></article>
</dblp>)";

TEST(EngineCacheTest, HitsServeIdenticalResults) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  engine->EnableResultCache(8);
  auto first = engine->Search("//article/title");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine->cache_hits(), 0u);
  EXPECT_EQ(engine->cache_misses(), 1u);
  auto second = engine->Search("//article/title");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine->cache_hits(), 1u);
  ASSERT_EQ(second->results.size(), first->results.size());
  for (size_t i = 0; i < first->results.size(); ++i) {
    EXPECT_EQ(second->results[i].output, first->results[i].output);
    EXPECT_DOUBLE_EQ(second->results[i].score, first->results[i].score);
  }
}

TEST(EngineCacheTest, DifferentOptionsMissTheCache) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  engine->EnableResultCache(8);
  ASSERT_TRUE(engine->Search("//article/title").ok());
  SearchOptions options;
  options.ranking.top_k = 1;
  ASSERT_TRUE(engine->Search("//article/title", options).ok());
  EXPECT_EQ(engine->cache_hits(), 0u);
  EXPECT_EQ(engine->cache_misses(), 2u);
}

TEST(EngineCacheTest, NearEqualRankingWeightsDoNotCollide) {
  // Regression: the cache key used to render ranking weights with
  // std::to_string (6 fixed decimals), so weights differing below 1e-6
  // collided on one key and the second search returned the first's
  // cached ranking. The key now encodes the exact IEEE-754 bits.
  SearchOptions a;
  a.ranking.content_weight = 1.0;
  SearchOptions b;
  b.ranking.content_weight = 1.0000001;  // to_string: "1.000000" for both
  ASSERT_EQ(std::to_string(a.ranking.content_weight),
            std::to_string(b.ranking.content_weight));

  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  engine->EnableResultCache(8);
  ASSERT_TRUE(engine->Search("//article/title", a).ok());
  ASSERT_TRUE(engine->Search("//article/title", b).ok());
  EXPECT_EQ(engine->cache_hits(), 0u);
  EXPECT_EQ(engine->cache_misses(), 2u);
  // Identical options still hit.
  ASSERT_TRUE(engine->Search("//article/title", a).ok());
  EXPECT_EQ(engine->cache_hits(), 1u);
}

TEST(EngineCacheTest, DisabledByDefaultAndDisableable) {
  auto engine = Engine::FromXmlText(kXml);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Search("//article").ok());
  EXPECT_EQ(engine->cache_misses(), 0u);
  engine->EnableResultCache(4);
  ASSERT_TRUE(engine->Search("//article").ok());
  EXPECT_EQ(engine->cache_misses(), 1u);
  engine->EnableResultCache(0);
  ASSERT_TRUE(engine->Search("//article").ok());
  EXPECT_EQ(engine->cache_misses(), 0u);
}

// -------------------------------------------------------- SearchCacheKey

// The pinning companion to the static_asserts in engine.cc: whenever an
// option struct grows, those asserts force a revisit of SearchCacheKey,
// and this test is where the new field's mutation gets added. Every
// result-or-stats-affecting field must produce a distinct key.
TEST(SearchCacheKeyTest, EveryOptionFieldChangesTheKey) {
  const twig::TwigQuery query =
      twig::ParseQuery("//article[author]/title").value();

  const std::vector<std::pair<std::string, std::function<void(SearchOptions&)>>>
      mutations = {
          {"eval.algorithm",
           [](SearchOptions& o) {
             o.eval.algorithm = twig::Algorithm::kTwigStack;
           }},
          {"eval.schema_prune_streams",
           [](SearchOptions& o) { o.eval.schema_prune_streams = true; }},
          {"rewrite_on_empty",
           [](SearchOptions& o) { o.rewrite_on_empty = !o.rewrite_on_empty; }},
          {"ranking.content_weight",
           [](SearchOptions& o) { o.ranking.content_weight += 0.25; }},
          {"ranking.structure_weight",
           [](SearchOptions& o) { o.ranking.structure_weight += 0.25; }},
          {"ranking.specificity_weight",
           [](SearchOptions& o) { o.ranking.specificity_weight += 0.25; }},
          {"ranking.top_k", [](SearchOptions& o) { o.ranking.top_k += 7; }},
          {"rewrite.min_results",
           [](SearchOptions& o) { o.rewrite.min_results += 1; }},
          {"rewrite.max_evaluations",
           [](SearchOptions& o) { o.rewrite.max_evaluations += 1; }},
          {"rewrite.max_penalty",
           [](SearchOptions& o) { o.rewrite.max_penalty += 0.5; }},
          {"rewrite.relax_axes",
           [](SearchOptions& o) {
             o.rewrite.relax_axes = !o.rewrite.relax_axes;
           }},
          {"rewrite.substitute_tags",
           [](SearchOptions& o) {
             o.rewrite.substitute_tags = !o.rewrite.substitute_tags;
           }},
          {"rewrite.relax_predicates",
           [](SearchOptions& o) {
             o.rewrite.relax_predicates = !o.rewrite.relax_predicates;
           }},
          {"rewrite.drop_leaves",
           [](SearchOptions& o) {
             o.rewrite.drop_leaves = !o.rewrite.drop_leaves;
           }},
      };

  std::map<std::string, std::string> key_to_field;
  key_to_field[SearchCacheKey(query, SearchOptions{})] = "<defaults>";
  for (const auto& [field, mutate] : mutations) {
    SearchOptions options;
    mutate(options);
    const std::string key = SearchCacheKey(query, options);
    auto [it, inserted] = key_to_field.emplace(key, field);
    EXPECT_TRUE(inserted) << "mutating " << field
                          << " collided with " << it->second
                          << " on key: " << key;
  }
}

TEST(SearchCacheKeyTest, DistinctQueriesGetDistinctKeys) {
  const twig::TwigQuery a = twig::ParseQuery("//article/title").value();
  const twig::TwigQuery b = twig::ParseQuery("//article[author]/title").value();
  EXPECT_NE(SearchCacheKey(a, SearchOptions{}),
            SearchCacheKey(b, SearchOptions{}));
}

TEST(SearchCacheKeyTest, KeyIsDeterministic) {
  const twig::TwigQuery query = twig::ParseQuery("//book//title").value();
  SearchOptions options;
  options.ranking.content_weight = 0.75;
  EXPECT_EQ(SearchCacheKey(query, options), SearchCacheKey(query, options));
}

}  // namespace
}  // namespace lotusx
