// CowMap: every version must equal a std::map that took the same updates,
// and building a new version must never change an old one.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cow_map.h"
#include "common/rng.h"

namespace tgraph {
namespace {

using Map = CowMap<int64_t, std::string>;

std::vector<std::pair<int64_t, std::string>> Entries(const Map& map) {
  std::vector<std::pair<int64_t, std::string>> out;
  map.ForEach([&](int64_t key, const std::string& value) {
    out.emplace_back(key, value);
  });
  return out;
}

std::vector<std::pair<int64_t, std::string>> Entries(
    const std::map<int64_t, std::string>& map) {
  return {map.begin(), map.end()};
}

TEST(CowMapTest, EmptyMap) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_TRUE(Entries(map).empty());
  map.ForEachFrom(0, [](int64_t, const std::string&) {
    ADD_FAILURE() << "visited an entry of an empty map";
    return true;
  });
}

TEST(CowMapTest, VersionsMatchStdMapAndNeverChange) {
  Rng rng(7);
  std::vector<Map> versions(1);
  std::vector<std::map<int64_t, std::string>> expected(1);
  for (int round = 0; round < 300; ++round) {
    // Mostly increasing keys (the ingest pattern) plus scattered ones, so
    // chunks both grow at the end and split in the middle.
    std::map<int64_t, std::optional<std::string>> updates;
    const uint64_t count = 1 + rng.NextBounded(40);
    for (uint64_t i = 0; i < count; ++i) {
      int64_t key = rng.NextBounded(4) == 0
                        ? static_cast<int64_t>(rng.NextBounded(5000)) - 100
                        : round * 20 + static_cast<int64_t>(i);
      if (rng.NextBounded(5) == 0) {
        updates[key] = std::nullopt;
      } else {
        updates[key] = std::to_string(round) + ":" + std::to_string(key);
      }
    }
    std::map<int64_t, std::string> next = expected.back();
    for (const auto& [key, value] : updates) {
      if (value) {
        next[key] = *value;
      } else {
        next.erase(key);
      }
    }
    versions.push_back(versions.back().With({updates.begin(), updates.end()}));
    expected.push_back(std::move(next));
  }
  for (size_t v = 0; v < versions.size(); ++v) {
    const Map& map = versions[v];
    const std::map<int64_t, std::string>& want = expected[v];
    ASSERT_EQ(map.size(), want.size()) << "version " << v;
    ASSERT_EQ(Entries(map), Entries(want)) << "version " << v;
    for (int64_t key = -150; key < 6100; key += 37) {
      const std::string* found = map.Find(key);
      auto it = want.find(key);
      ASSERT_EQ(found != nullptr, it != want.end()) << key;
      if (found != nullptr) EXPECT_EQ(*found, it->second);
    }
    // ForEachFrom visits exactly the entries at or above `from`, in order,
    // and stops when asked.
    for (int64_t from : {-200, 0, 1234, 2999, 7000}) {
      std::vector<int64_t> seen;
      map.ForEachFrom(from, [&](int64_t key, const std::string&) {
        seen.push_back(key);
        return seen.size() < 25;
      });
      std::vector<int64_t> want_keys;
      for (auto it = want.lower_bound(from);
           it != want.end() && want_keys.size() < 25; ++it) {
        want_keys.push_back(it->first);
      }
      EXPECT_EQ(seen, want_keys) << "version " << v << " from " << from;
    }
  }
}

TEST(CowMapTest, CustomOrder) {
  struct Descending {
    bool operator()(int a, int b) const { return a > b; }
  };
  CowMap<int, int, Descending> map;
  std::vector<CowMap<int, int, Descending>::Update> updates;
  for (int key = 500; key > 0; --key) updates.emplace_back(key, key * 2);
  map = map.With(std::move(updates));
  std::vector<int> keys;
  map.ForEach([&](int key, int value) {
    EXPECT_EQ(value, key * 2);
    keys.push_back(key);
  });
  ASSERT_EQ(keys.size(), 500u);
  EXPECT_EQ(keys.front(), 500);
  EXPECT_EQ(keys.back(), 1);
  ASSERT_NE(map.Find(250), nullptr);
  EXPECT_EQ(*map.Find(250), 500);
}

}  // namespace
}  // namespace tgraph
