#ifndef TGRAPH_TESTS_ROUTING_TEST_UTIL_H_
#define TGRAPH_TESTS_ROUTING_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstddef>

#include "dataflow/dataset.h"

namespace tgraph::testing {

/// Checks the routing `ds` claims: when it claims a partition count, every
/// record of partition p has `RouteHash(key_of(record)) % count == p`. A
/// wrong kPreservesPartitioning declaration shows up here instead of as a
/// join that silently misses matches. Returns the claimed count (0: none).
template <typename T, typename KeyOf>
size_t ExpectRouted(const dataflow::Dataset<T>& ds, const KeyOf& key_of) {
  const size_t count = ds.RoutedPartitions();
  if (count == 0) return 0;
  const dataflow::Partitions<T>& parts = ds.MaterializedPartitions();
  EXPECT_EQ(parts.size(), count);
  size_t misplaced = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const T& record : parts[p]) {
      if (dataflow::RouteHash(key_of(record)) % count != p) ++misplaced;
    }
  }
  EXPECT_EQ(misplaced, 0u) << "records outside the partition they route to";
  return count;
}

/// ExpectRouted for a key-value dataset, keyed by `.first`.
template <typename K, typename V>
size_t ExpectRouted(const dataflow::Dataset<std::pair<K, V>>& ds) {
  return ExpectRouted(
      ds, [](const std::pair<K, V>& kv) -> const K& { return kv.first; });
}

}  // namespace tgraph::testing

#endif  // TGRAPH_TESTS_ROUTING_TEST_UTIL_H_
