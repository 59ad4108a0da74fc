#ifndef TGRAPH_DATAFLOW_FLAT_INDEX_H_
#define TGRAPH_DATAFLOW_FLAT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/hashing.h"

namespace tgraph::dataflow::internal_dataset {

/// A FlatIndex starts with room for at most this many keys and doubles as
/// it fills: a partition's record count bounds its distinct keys, but a
/// duplicate-heavy partition of millions of records should not allocate
/// slots for millions of keys up front.
inline constexpr size_t kFlatIndexMaxInitialKeys = size_t{1} << 16;

/// \brief The per-partition hash index behind every wide operator: an
/// open-addressing (linear probing) table of positions into a vector the
/// caller owns.
///
/// Distinct keys are numbered 0, 1, 2, ... in first-insertion order. The
/// caller keeps the entry of key i (an output record, a group, the head
/// of a chain) at position i of its own vector, and `key_at(i)` returns
/// that entry's key. The index holds only a slot array: each slot packs a
/// position with 32 bits of the key's re-mixed hash, so a probe compares
/// keys only on a tag match and growth rehashes without reading a key.
/// Nothing is allocated per key.
///
/// The home slot is the top bits of `DfHash(key)` multiplied by the
/// 64-bit golden ratio. Every key of one shuffled partition has the same
/// `DfHash % num_partitions`, so the raw low bits cluster.
template <typename K, typename KeyAt>
class FlatIndex {
 public:
  static constexpr size_t kAbsent = ~size_t{0};

  FlatIndex(size_t expected_keys, KeyAt key_at) : key_at_(std::move(key_at)) {
    const size_t keys = std::min(expected_keys, kFlatIndexMaxInitialKeys);
    Resize(std::bit_ceil(std::max<size_t>(8, 2 * keys)));
  }

  /// Number of distinct keys inserted.
  size_t size() const { return size_; }

  /// The position of `key`, or kAbsent.
  size_t Find(const K& key) const {
    const Slot& slot = slots_[SlotOf(key, Tag(key))];
    return slot.pos_plus_one == 0 ? kAbsent : slot.pos_plus_one - 1;
  }

  /// Returns {position of `key`, false} when the key is present. Otherwise
  /// numbers it size() and returns {size(), true}; the caller must append
  /// the key's entry at that position before the next call.
  std::pair<size_t, bool> Insert(const K& key) {
    const uint32_t tag = Tag(key);
    const size_t s = SlotOf(key, tag);
    if (slots_[s].pos_plus_one != 0) {
      return {slots_[s].pos_plus_one - 1, false};
    }
    TG_CHECK_LT(size_, size_t{UINT32_MAX} / 2);
    const size_t pos = size_++;
    slots_[s] = Slot{static_cast<uint32_t>(pos + 1), tag};
    // Load factor at most 1/2, so a probe always reaches an empty slot.
    if (2 * size_ > slots_.size()) Resize(2 * slots_.size());
    return {pos, true};
  }

 private:
  struct Slot {
    uint32_t pos_plus_one = 0;  ///< 0 marks an empty slot
    uint32_t tag = 0;
  };

  static uint32_t Tag(const K& key) {
    return static_cast<uint32_t>((DfHash(key) * 0x9e3779b97f4a7c15ULL) >> 32);
  }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t SlotOf(const K& key, uint32_t tag) const {
    size_t s = tag >> shift_;
    for (; slots_[s].pos_plus_one != 0; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.tag == tag && key_at_(slot.pos_plus_one - 1) == key) break;
    }
    return s;
  }

  void Resize(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 32 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.pos_plus_one == 0) continue;
      size_t s = slot.tag >> shift_;
      while (slots_[s].pos_plus_one != 0) s = (s + 1) & mask_;
      slots_[s] = slot;
    }
  }

  KeyAt key_at_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t size_ = 0;
};

/// A FlatIndex over `key_at`'s positions.
template <typename K, typename KeyAt>
FlatIndex<K, KeyAt> MakeFlatIndex(size_t expected_keys, KeyAt key_at) {
  return FlatIndex<K, KeyAt>(expected_keys, std::move(key_at));
}

/// A FlatIndex over a vector of key-value pairs, keyed by `.first`.
template <typename K, typename E>
auto IndexByFirst(const std::vector<E>& entries, size_t expected_keys) {
  return MakeFlatIndex<K>(expected_keys, [&entries](size_t i) -> const K& {
    return entries[i].first;
  });
}

/// \brief The build side of a hash join: same-key chains over a vector of
/// key-value records, each chain in insertion order. Holds the index of
/// distinct keys, each key's first and last record, and one next-link per
/// record; the records stay where they are.
template <typename K, typename W>
class KeyChains {
 public:
  explicit KeyChains(const std::vector<std::pair<K, W>>& records)
      : records_(records),
        next_(records.size(), kEnd),
        index_(records.size(), KeyOfChain{this}) {
    TG_CHECK_LT(records.size(), size_t{kEnd});
    for (uint32_t r = 0; r < records.size(); ++r) {
      auto [chain, inserted] = index_.Insert(records[r].first);
      if (inserted) {
        ends_.emplace_back(r, r);
      } else {
        next_[ends_[chain].second] = r;
        ends_[chain].second = r;
      }
    }
  }

  KeyChains(const KeyChains&) = delete;
  KeyChains& operator=(const KeyChains&) = delete;

  bool Contains(const K& key) const {
    return index_.Find(key) != Index::kAbsent;
  }

  /// Calls fn(const W&) for every record with `key`, in insertion order.
  template <typename Fn>
  void ForEachMatch(const K& key, const Fn& fn) const {
    const size_t chain = index_.Find(key);
    if (chain == Index::kAbsent) return;
    for (uint32_t r = ends_[chain].first; r != kEnd; r = next_[r]) {
      fn(records_[r].second);
    }
  }

 private:
  static constexpr uint32_t kEnd = UINT32_MAX;
  struct KeyOfChain {
    const KeyChains* self;
    const K& operator()(size_t i) const {
      return self->records_[self->ends_[i].first].first;
    }
  };
  using Index = FlatIndex<K, KeyOfChain>;

  const std::vector<std::pair<K, W>>& records_;
  std::vector<uint32_t> next_;                       ///< per record
  std::vector<std::pair<uint32_t, uint32_t>> ends_;  ///< per key: first, last
  Index index_;
};

}  // namespace tgraph::dataflow::internal_dataset

#endif  // TGRAPH_DATAFLOW_FLAT_INDEX_H_
