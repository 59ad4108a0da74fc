#ifndef TGRAPH_SERVER_RESULT_CACHE_H_
#define TGRAPH_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace tgraph::server {

/// \brief Thread-safe LRU cache from canonicalized query plans to
/// serialized result tables — the "coalesced zoom results stay hot between
/// requests" half of tgraphd (the graph catalog is the other half).
///
/// Keys are (canonical script, versions read) strings built by the
/// server; values are the exact response bodies previously returned.
/// Hit/miss/eviction counters are published to obs::MetricsRegistry under
/// server.cache.*.
class ResultCache {
 public:
  /// `max_bytes` budgets cached values plus their keys; entries are
  /// evicted least-recently-used-first to stay under it. 0 disables the
  /// cache. Entries never expire: the server keys each one by the versions
  /// of the directories and views it read, so an entry is never served for
  /// data that changed after it was computed.
  explicit ResultCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullopt on
  /// miss.
  std::optional<std::string> Get(const std::string& key);

  /// Inserts (or replaces) an entry, evicting LRU entries to fit the byte
  /// budget. Values larger than the whole budget are not cached.
  /// `tags` name the datasets the result depends on (the LOADed graph
  /// directories): EvictTag(tag) later drops every entry carrying that
  /// tag and no others.
  void Put(const std::string& key, std::string value,
           std::vector<std::string> tags = {});

  /// Drops every entry tagged with `tag` — scoped invalidation: ingesting
  /// into graph A reclaims A's cached results without touching B's.
  /// (Correctness does not depend on this — keys carry the versions read,
  /// so stale entries can never be *served* — this frees their bytes
  /// promptly instead of waiting for LRU pressure.)
  void EvictTag(const std::string& tag);

  /// Drops every entry.
  void Clear();

  size_t bytes() const;
  size_t entries() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::vector<std::string> tags;
  };

  // Callers hold mu_.
  void EvictToFit(size_t incoming_bytes);
  void Erase(std::list<Entry>::iterator it);
  static size_t EntryBytes(const Entry& entry) {
    return entry.key.size() + entry.value.size();
  }
  void PublishGauges();

  const size_t max_bytes_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
};

}  // namespace tgraph::server

#endif  // TGRAPH_SERVER_RESULT_CACHE_H_
