// CowMap: every version must equal a std::map that took the same updates,
// and building a new version must never change an old one.

#include <gtest/gtest.h>

#include <algorithm>
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
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
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

// The difference walk must report exactly what a naive comparison of the
// two versions' entries reports, for any two versions of one history
// (not only consecutive ones): inserts, erases, replaced values and
// chunk splits in between.
TEST(CowMapTest, DiffEqualsNaiveDiffOverRandomVersionPairs) {
  Rng rng(11);
  std::vector<Map> versions(1);
  std::vector<std::map<int64_t, std::string>> expected(1);
  for (int round = 0; round < 120; ++round) {
    std::map<int64_t, std::optional<std::string>> updates;
    const uint64_t count = 1 + rng.NextBounded(60);
    for (uint64_t i = 0; i < count; ++i) {
      const int64_t key = rng.NextBounded(3) == 0
                              ? static_cast<int64_t>(rng.NextBounded(3000))
                              : round * 25 + static_cast<int64_t>(i);
      if (rng.NextBounded(5) == 0) {
        updates[key] = std::nullopt;
      } else {
        // Few distinct values, so a replaced value is sometimes equal.
        // append(), not "v" + std::string&& (GCC 12 -Wrestrict false
        // positive).
        updates[key] =
            std::string("v").append(std::to_string(rng.NextBounded(3)));
      }
    }
    std::vector<Map::Update> batch;
    std::map<int64_t, std::string> next = expected.back();
    for (auto& [key, value] : updates) {
      batch.emplace_back(key, value);
      if (value) {
        next[key] = *value;
      } else {
        next.erase(key);
      }
    }
    versions.push_back(versions.back().With(std::move(batch)));
    expected.push_back(std::move(next));
  }
  using Change = std::pair<int64_t, std::pair<std::optional<std::string>,
                                              std::optional<std::string>>>;
  for (int pair = 0; pair < 200; ++pair) {
    const size_t from = rng.NextBounded(versions.size());
    const size_t to = rng.NextBounded(versions.size());
    std::vector<Change> walked;
    versions[from].Diff(versions[to], [&](int64_t key, const std::string* a,
                                          const std::string* b) {
      std::optional<std::string> before, after;
      if (a != nullptr) before = *a;
      if (b != nullptr) after = *b;
      walked.emplace_back(key, std::make_pair(before, after));
    });
    std::vector<Change> naive;
    auto a = expected[from].begin();
    auto b = expected[to].begin();
    while (a != expected[from].end() || b != expected[to].end()) {
      if (b == expected[to].end() ||
          (a != expected[from].end() && a->first < b->first)) {
        naive.emplace_back(a->first, std::make_pair(a->second, std::nullopt));
        ++a;
      } else if (a == expected[from].end() || b->first < a->first) {
        naive.emplace_back(b->first, std::make_pair(std::nullopt, b->second));
        ++b;
      } else {
        if (a->second != b->second) {
          naive.emplace_back(a->first, std::make_pair(a->second, b->second));
        }
        ++a;
        ++b;
      }
    }
    ASSERT_EQ(walked, naive) << "versions " << from << " -> " << to;
  }
}

// A value that records which keys the walk compared.
struct Probe {
  int64_t key = 0;
  int value = 0;
  static std::vector<int64_t>* compared;
  bool operator==(const Probe& other) const {
    compared->push_back(key);
    return value == other.value;
  }
};
std::vector<int64_t>* Probe::compared = nullptr;

struct CountingLess {
  static int64_t calls;
  bool operator()(int64_t a, int64_t b) const {
    ++calls;
    return a < b;
  }
};
int64_t CountingLess::calls = 0;

TEST(CowMapTest, DiffReadsNoEntryOfASharedChunk) {
  using ProbeMap = CowMap<int64_t, Probe, CountingLess>;
  std::vector<int64_t> compared;
  Probe::compared = &compared;
  std::vector<ProbeMap::Update> initial;
  for (int64_t key = 0; key < 4000; key += 2) {
    initial.emplace_back(key, Probe{key, 0});
  }
  const ProbeMap before = ProbeMap().With(std::move(initial));
  std::vector<ProbeMap::Update> updates;
  updates.emplace_back(1000, Probe{1000, 1});
  updates.emplace_back(1001, Probe{1001, 0});
  const ProbeMap after = before.With(std::move(updates));

  // The keys of the one chunk With() copied: the chunk holding key 1000.
  std::vector<int64_t> copied;
  for (size_t c = 0; c < after.chunk_count(); ++c) {
    std::vector<int64_t> keys;
    after.ForEachInChunk(c, [&](int64_t key, const Probe&) {
      keys.push_back(key);
    });
    if (std::find(keys.begin(), keys.end(), 1000) != keys.end()) {
      copied = keys;
    }
  }
  ASSERT_FALSE(copied.empty());
  ASSERT_LT(copied.size(), 300u);

  compared.clear();
  CountingLess::calls = 0;
  std::vector<int64_t> changed;
  before.Diff(after, [&](int64_t key, const Probe*, const Probe*) {
    changed.push_back(key);
  });
  EXPECT_EQ(changed, (std::vector<int64_t>{1000, 1001}));
  for (int64_t key : compared) {
    EXPECT_NE(std::find(copied.begin(), copied.end(), key), copied.end())
        << "compared key " << key << " outside the copied chunk";
  }
  EXPECT_LE(CountingLess::calls, static_cast<int64_t>(4 * copied.size()));
  Probe::compared = nullptr;
}

}  // namespace
}  // namespace tgraph
