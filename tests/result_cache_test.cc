#include "server/result_cache.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace tgraph::server {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

TEST(ResultCacheTest, GetAfterPutHitsAndTracksBytes) {
  ResultCache cache(1024);
  EXPECT_EQ(cache.Get("k"), std::nullopt);
  cache.Put("k", "value");
  ASSERT_TRUE(cache.Get("k").has_value());
  EXPECT_EQ(*cache.Get("k"), "value");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), std::string("k").size() + std::string("value").size());
}

TEST(ResultCacheTest, PutReplacesExistingEntry) {
  ResultCache cache(1024);
  cache.Put("k", "old");
  cache.Put("k", "newer");
  EXPECT_EQ(*cache.Get("k"), "newer");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 1u + 5u);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Each entry is 1 (key) + 9 (value) = 10 bytes; budget fits three.
  ResultCache cache(30);
  cache.Put("a", "123456789");
  cache.Put("b", "123456789");
  cache.Put("c", "123456789");
  ASSERT_TRUE(cache.Get("a").has_value());  // a is now most-recent
  cache.Put("d", "123456789");              // evicts b, the LRU
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  EXPECT_LE(cache.bytes(), 30u);
}

TEST(ResultCacheTest, OversizedValueIsNotAdmitted) {
  ResultCache cache(10);
  cache.Put("small", "x");
  cache.Put("big", std::string(100, 'y'));  // would not fit even alone
  EXPECT_FALSE(cache.Get("big").has_value());
  // Crucially, the oversized put must not have flushed what was there.
  EXPECT_TRUE(cache.Get("small").has_value());
}

TEST(ResultCacheTest, CountersTrackHitsMissesEvictions) {
  int64_t hits_before = CounterValue(obs::metric_names::kCacheHits);
  int64_t misses_before = CounterValue(obs::metric_names::kCacheMisses);
  int64_t evictions_before = CounterValue(obs::metric_names::kCacheEvictions);

  ResultCache cache(20);
  cache.Get("absent");                   // miss
  cache.Put("a", "123456789");           // 10 bytes
  cache.Get("a");                        // hit
  cache.Put("b", "123456789");           // 10 bytes, fits; b is now MRU
  cache.Put("c", "123456789");           // evicts a, the LRU
  EXPECT_EQ(CounterValue(obs::metric_names::kCacheHits), hits_before + 1);
  EXPECT_EQ(CounterValue(obs::metric_names::kCacheMisses), misses_before + 1);
  EXPECT_EQ(CounterValue(obs::metric_names::kCacheEvictions),
            evictions_before + 1);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("b").has_value());
}

TEST(ResultCacheTest, ClearResetsEverything) {
  ResultCache cache(1024);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_FALSE(cache.Get("a").has_value());
}

TEST(ResultCacheTest, EvictTagDropsOnlyTaggedEntries) {
  ResultCache cache(1024);
  cache.Put("qa", "ra", {"/data/a"});
  cache.Put("qb", "rb", {"/data/b"});
  cache.Put("qplain", "rplain");  // untagged: no dataset dependency
  int64_t evictions_before = CounterValue(obs::metric_names::kCacheEvictions);

  cache.EvictTag("/data/a");

  EXPECT_FALSE(cache.Get("qa").has_value());
  EXPECT_TRUE(cache.Get("qb").has_value());
  EXPECT_TRUE(cache.Get("qplain").has_value());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(),
            std::string("qb").size() + std::string("rb").size() +
                std::string("qplain").size() + std::string("rplain").size());
  EXPECT_EQ(CounterValue(obs::metric_names::kCacheEvictions),
            evictions_before + 1);
}

TEST(ResultCacheTest, EvictTagMatchesAnyTagOfMultiGraphResults) {
  // A query that LOADs two graphs is tagged with both; ingesting into
  // either one must invalidate it.
  ResultCache cache(1024);
  cache.Put("join", "r", {"/data/a", "/data/b"});
  cache.Put("solo", "r", {"/data/b"});
  cache.EvictTag("/data/a");
  EXPECT_FALSE(cache.Get("join").has_value());
  EXPECT_TRUE(cache.Get("solo").has_value());
}

TEST(ResultCacheTest, ViewTagsEvictOnlyThatViewsEntries) {
  // View results are tagged "view:<name>" (alongside the source graph's
  // directory tag): DROP VIEW a / a fallback rebuild of a must drop a's
  // entries and nothing else — not view b's, not plain graph results.
  ResultCache cache(1024);
  cache.Put("qa", "ra", {"/data/live", "view:a"});
  cache.Put("qa2", "ra2", {"/data/live", "view:a"});
  cache.Put("qb", "rb", {"/data/live", "view:b"});
  cache.Put("qgraph", "rg", {"/data/live"});

  cache.EvictTag("view:a");

  EXPECT_FALSE(cache.Get("qa").has_value());
  EXPECT_FALSE(cache.Get("qa2").has_value());
  EXPECT_TRUE(cache.Get("qb").has_value());
  EXPECT_TRUE(cache.Get("qgraph").has_value());
  EXPECT_EQ(cache.entries(), 2u);

  // Ingesting into the source still drops everything that read it,
  // views included (they are tagged with the source directory too).
  cache.EvictTag("/data/live");
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, EvictTagOnAbsentTagIsANoOp) {
  ResultCache cache(1024);
  cache.Put("k", "v", {"/data/a"});
  cache.EvictTag("/data/never-loaded");
  EXPECT_TRUE(cache.Get("k").has_value());
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
}  // namespace tgraph::server
