#ifndef TGRAPH_DATAFLOW_HASHING_H_
#define TGRAPH_DATAFLOW_HASHING_H_

#include <bit>
#include <compare>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/hash.h"

namespace tgraph::dataflow {

namespace internal_hashing {

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
concept HasHashMethod = requires(const T& t) {
  { t.Hash() } -> std::convertible_to<uint64_t>;
};

template <typename T>
concept HasRouteKey = requires(const T& t) { t.RouteKey(); };

}  // namespace internal_hashing

/// \brief Hashes any key type the dataflow engine shuffles by: integrals,
/// strings, doubles, pairs (recursively), and any type exposing a
/// `uint64_t Hash() const` method (Properties, PropertyValue, Interval keys).
template <typename T>
uint64_t DfHash(const T& value) {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return Mix64(static_cast<uint64_t>(value));
  } else if constexpr (std::is_same_v<T, double> || std::is_same_v<T, float>) {
    return Mix64(std::bit_cast<uint64_t>(static_cast<double>(value)));
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    return HashBytes(std::string_view(value));
  } else if constexpr (internal_hashing::HasHashMethod<T>) {
    return value.Hash();
  } else if constexpr (internal_hashing::IsPair<T>::value) {
    return HashCombine(DfHash(value.first), DfHash(value.second));
  } else {
    static_assert(sizeof(T) == 0,
                  "DfHash: type is not hashable; add a Hash() method");
  }
}

/// \brief The hash a shuffle routes a key by: record r lands in partition
/// `RouteHash(key) % n`. A composite key routes by a declared prefix when it
/// has a `RouteKey()` method — (vid, window) lands where vid lands, so a
/// dataset partitioned by vid is already partitioned for a (vid, window)
/// aggregation. Every other key routes by its DfHash. Per-partition hash
/// tables keep hashing the full key with DfHash.
template <typename T>
uint64_t RouteHash(const T& key) {
  if constexpr (internal_hashing::HasRouteKey<T>) {
    return RouteHash(key.RouteKey());
  } else {
    return DfHash(key);
  }
}

/// \brief A composite key that routes by its first component: an entity id
/// plus what splits the entity's records, e.g. (vid, window). Records keyed
/// by it land where records keyed by `prefix` alone land, so a relation
/// routed by entity id feeds a per-(entity, ·) aggregation without a
/// shuffle. Tables hash both components.
template <typename Prefix, typename Rest>
struct PrefixKey {
  Prefix prefix{};
  Rest rest{};

  const Prefix& RouteKey() const { return prefix; }
  uint64_t Hash() const { return HashCombine(DfHash(prefix), DfHash(rest)); }
  auto operator<=>(const PrefixKey&) const = default;
};

}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_HASHING_H_
