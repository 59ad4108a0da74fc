#ifndef TGRAPH_COMMON_HASH_H_
#define TGRAPH_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tgraph {

/// \brief Mixes a 64-bit value (splitmix64 finalizer). Used to decorrelate
/// sequential ids before hash partitioning.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief FNV-1a over a byte string. Passing the hash of a prefix as `h`
/// continues it: hashing pieces in turn equals hashing their
/// concatenation.
constexpr uint64_t HashBytes(std::string_view bytes,
                             uint64_t h = 0xcbf29ce484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// \brief Combines an accumulated hash with another hash value
/// (boost::hash_combine, 64-bit variant).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// \brief Four-lane word-at-a-time checksum: splitmix64-mixes little-endian
/// 64-bit words into four independent accumulators (32 bytes per step), so
/// the multiply chains overlap instead of serializing. An order of
/// magnitude faster than byte-wise FNV-1a, which matters when every segment
/// of a multi-megabyte store file is checksummed on first touch. Not
/// FNV-compatible; this is the tgraph-store v2 checksum (docs/FORMAT.md
/// section 1.7). TCOL v1 keeps FNV-1a (HashBytes) so v1 files stay
/// readable.
inline uint64_t HashBytesFast(std::string_view bytes) {
  uint64_t h0 = 0xcbf29ce484222325ULL ^ bytes.size();
  uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  uint64_t h2 = 0xbf58476d1ce4e5b9ULL;
  uint64_t h3 = 0x94d049bb133111ebULL;
  size_t i = 0;
  for (; i + 32 <= bytes.size(); i += 32) {
    uint64_t w0, w1, w2, w3;
    __builtin_memcpy(&w0, bytes.data() + i, 8);
    __builtin_memcpy(&w1, bytes.data() + i + 8, 8);
    __builtin_memcpy(&w2, bytes.data() + i + 16, 8);
    __builtin_memcpy(&w3, bytes.data() + i + 24, 8);
    h0 = Mix64(h0 ^ w0);
    h1 = Mix64(h1 ^ w1);
    h2 = Mix64(h2 ^ w2);
    h3 = Mix64(h3 ^ w3);
  }
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    __builtin_memcpy(&word, bytes.data() + i, 8);
    h0 = Mix64(h0 ^ word);
  }
  if (i < bytes.size()) {
    uint64_t word = 0;
    __builtin_memcpy(&word, bytes.data() + i, bytes.size() - i);
    h0 = Mix64(h0 ^ word);
  }
  return Mix64(Mix64(Mix64(Mix64(h0) ^ h1) ^ h2) ^ h3);
}

}  // namespace tgraph

#endif  // TGRAPH_COMMON_HASH_H_
