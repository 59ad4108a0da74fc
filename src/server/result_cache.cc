#include "server/result_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace tgraph::server {

namespace {

obs::Counter* CacheCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

std::optional<std::string> ResultCache::Get(const std::string& key) {
  static obs::Counter* hits = CacheCounter(obs::metric_names::kCacheHits);
  static obs::Counter* misses = CacheCounter(obs::metric_names::kCacheMisses);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses->Increment();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits->Increment();
  return it->second->value;
}

void ResultCache::Put(const std::string& key, std::string value,
                      std::vector<std::string> tags) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) Erase(it->second);
  size_t incoming = key.size() + value.size();
  if (incoming > max_bytes_) {
    // Never let one oversized result flush the whole cache.
    PublishGauges();
    return;
  }
  EvictToFit(incoming);
  lru_.push_front(Entry{key, std::move(value), std::move(tags)});
  index_[key] = lru_.begin();
  bytes_ += incoming;
  PublishGauges();
}

void ResultCache::EvictTag(const std::string& tag) {
  static obs::Counter* evictions =
      CacheCounter(obs::metric_names::kCacheEvictions);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    const auto& tags = it->tags;
    if (std::find(tags.begin(), tags.end(), tag) != tags.end()) {
      Erase(it);
      evictions->Increment();
    }
    it = next;
  }
  PublishGauges();
}

void ResultCache::EvictToFit(size_t incoming_bytes) {
  static obs::Counter* evictions =
      CacheCounter(obs::metric_names::kCacheEvictions);
  while (!lru_.empty() && bytes_ + incoming_bytes > max_bytes_) {
    Erase(std::prev(lru_.end()));
    evictions->Increment();
  }
}

void ResultCache::Erase(std::list<Entry>::iterator it) {
  bytes_ -= EntryBytes(*it);
  index_.erase(it->key);
  lru_.erase(it);
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  PublishGauges();
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void ResultCache::PublishGauges() {
  static obs::Gauge* bytes_gauge =
      obs::MetricsRegistry::Global().GetGauge(obs::metric_names::kCacheBytes);
  static obs::Gauge* entries_gauge =
      obs::MetricsRegistry::Global().GetGauge(obs::metric_names::kCacheEntries);
  bytes_gauge->Set(static_cast<int64_t>(bytes_));
  entries_gauge->Set(static_cast<int64_t>(lru_.size()));
}

}  // namespace tgraph::server
