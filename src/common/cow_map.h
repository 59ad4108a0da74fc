#ifndef TGRAPH_COMMON_COW_MAP_H_
#define TGRAPH_COMMON_COW_MAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace tgraph {

/// \brief An immutable sorted map whose versions share structure.
///
/// Entries live in sorted chunks of bounded size, each held by a
/// shared_ptr. With() returns a new version that shares every chunk no
/// update falls into and copies only the others, so publishing a version
/// with k changed entries costs O(k * chunk size + number of chunks)
/// rather than a copy of the whole map. Versions are never mutated after
/// construction: any number of threads may read one while another builds
/// its successor.
///
/// Store heavy values behind a shared_ptr: a copied chunk copies its
/// values.
template <typename K, typename V, typename Less = std::less<K>>
class CowMap {
 public:
  using Entry = std::pair<K, V>;
  /// One change for With(): a value inserts or replaces, nullopt erases.
  using Update = std::pair<K, std::optional<V>>;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The value stored under `key`, or nullptr.
  const V* Find(const K& key) const {
    const Chunk* chunk = ChunkFor(key);
    if (chunk == nullptr) return nullptr;
    auto it = std::lower_bound(chunk->begin(), chunk->end(), key, KeyLess());
    if (it == chunk->end() || Less()(key, it->first)) return nullptr;
    return &it->second;
  }

  /// Calls fn(key, value) for every entry, in key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (const Entry& entry : *chunk) fn(entry.first, entry.second);
    }
  }

  /// Calls fn(key, value) for the entries with key >= `from`, in key
  /// order, while fn returns true.
  template <typename Fn>
  void ForEachFrom(const K& from, Fn&& fn) const {
    auto chunk = std::upper_bound(chunks_.begin(), chunks_.end(), from,
                                  ChunkLess());
    if (chunk != chunks_.begin()) --chunk;
    for (; chunk != chunks_.end(); ++chunk) {
      auto it = std::lower_bound((*chunk)->begin(), (*chunk)->end(), from,
                                 KeyLess());
      for (; it != (*chunk)->end(); ++it) {
        if (!fn(it->first, it->second)) return;
      }
    }
  }

  /// Calls fn(key, before, after) for every key whose entry differs
  /// between this version and `after`, in key order: `before` or `after`
  /// is nullptr where the key is absent from that version, and values are
  /// compared with ==. Chunks the two versions share are skipped without
  /// reading an entry, so diffing a version against its successor costs
  /// O(number of chunks + entries in the chunks With() copied).
  template <typename Fn>
  void Diff(const CowMap& after, Fn&& fn) const {
    const auto& left = chunks_;
    const auto& right = after.chunks_;
    size_t i = 0, j = 0;  // chunk cursors
    size_t a = 0, b = 0;  // entry cursors within chunks i and j
    while (i < left.size() || j < right.size()) {
      // Both cursors reach the first key of a shared chunk together: keys
      // are visited in order, and the chunk holds the same keys in both.
      if (i < left.size() && j < right.size() && a == 0 && b == 0 &&
          left[i] == right[j]) {
        ++i;
        ++j;
        continue;
      }
      const Entry* x = i < left.size() ? &(*left[i])[a] : nullptr;
      const Entry* y = j < right.size() ? &(*right[j])[b] : nullptr;
      const bool take_x =
          x != nullptr && (y == nullptr || !Less()(y->first, x->first));
      const bool take_y =
          y != nullptr && (x == nullptr || !Less()(x->first, y->first));
      if (take_x && take_y) {
        if (!(x->second == y->second)) fn(x->first, &x->second, &y->second);
      } else if (take_x) {
        fn(x->first, &x->second, static_cast<const V*>(nullptr));
      } else {
        fn(y->first, static_cast<const V*>(nullptr), &y->second);
      }
      if (take_x && ++a == left[i]->size()) {
        ++i;
        a = 0;
      }
      if (take_y && ++b == right[j]->size()) {
        ++j;
        b = 0;
      }
    }
  }

  /// The number of chunks; ForEachInChunk(c, fn) for every c below it
  /// visits every entry in key order, so chunks can be read in parallel.
  size_t chunk_count() const { return chunks_.size(); }

  /// Calls fn(key, value) for the entries of chunk `c`, in key order.
  template <typename Fn>
  void ForEachInChunk(size_t c, Fn&& fn) const {
    for (const Entry& entry : *chunks_[c]) fn(entry.first, entry.second);
  }

  /// A new version with `updates` applied. `updates` must be sorted by key
  /// with no key repeated.
  CowMap With(std::vector<Update> updates) const {
    CowMap out;
    out.chunks_.reserve(chunks_.size() + updates.size() / kChunkSize + 1);
    auto next = updates.begin();
    std::vector<Entry> merged;
    auto take = [&merged](Update& update) {
      if (update.second) {
        merged.emplace_back(update.first, std::move(*update.second));
      }
    };
    for (size_t c = 0; c < chunks_.size() || next != updates.end(); ++c) {
      // Updates below the next chunk's first key land in this chunk (the
      // first chunk also takes every key below its own first key).
      auto last = updates.end();
      if (c + 1 < chunks_.size()) {
        const K& bound = chunks_[c + 1]->front().first;
        last = std::find_if(next, updates.end(), [&](const Update& u) {
          return !Less()(u.first, bound);
        });
      }
      if (c < chunks_.size() && next == last) {
        out.size_ += chunks_[c]->size();
        out.chunks_.push_back(chunks_[c]);
        continue;
      }
      merged.clear();
      if (c < chunks_.size()) {
        const Chunk& chunk = *chunks_[c];
        merged.reserve(chunk.size() + static_cast<size_t>(last - next));
        for (const Entry& entry : chunk) {
          for (; next != last && Less()(next->first, entry.first); ++next) {
            take(*next);
          }
          if (next != last && !Less()(entry.first, next->first)) {
            take(*next++);
          } else {
            merged.push_back(entry);
          }
        }
      }
      for (; next != last; ++next) take(*next);
      out.Emit(&merged);
    }
    return out;
  }

 private:
  using Chunk = std::vector<Entry>;
  /// Chunks split at twice this size, so an update copies at most
  /// 2 * kChunkSize entries.
  static constexpr size_t kChunkSize = 64;

  struct ChunkLess {
    bool operator()(const K& key,
                    const std::shared_ptr<const Chunk>& chunk) const {
      return Less()(key, chunk->front().first);
    }
  };
  struct KeyLess {
    bool operator()(const Entry& entry, const K& key) const {
      return Less()(entry.first, key);
    }
  };

  /// The only chunk that could hold `key`, or nullptr.
  const Chunk* ChunkFor(const K& key) const {
    auto it =
        std::upper_bound(chunks_.begin(), chunks_.end(), key, ChunkLess());
    if (it == chunks_.begin()) return nullptr;
    return (it - 1)->get();
  }

  /// Appends `entries` (sorted, above every existing key) as one or more
  /// chunks of at most 2 * kChunkSize entries.
  void Emit(std::vector<Entry>* entries) {
    size_ += entries->size();
    size_t begin = 0;
    while (entries->size() - begin > 2 * kChunkSize) {
      chunks_.push_back(std::make_shared<const Chunk>(
          std::make_move_iterator(entries->begin() + begin),
          std::make_move_iterator(entries->begin() + begin + kChunkSize)));
      begin += kChunkSize;
    }
    if (begin < entries->size()) {
      chunks_.push_back(std::make_shared<const Chunk>(
          std::make_move_iterator(entries->begin() + begin),
          std::make_move_iterator(entries->end())));
    }
  }

  std::vector<std::shared_ptr<const Chunk>> chunks_;  // sorted, non-empty
  size_t size_ = 0;
};

}  // namespace tgraph

#endif  // TGRAPH_COMMON_COW_MAP_H_
