#ifndef TGRAPH_DATAFLOW_HASHING_H_
#define TGRAPH_DATAFLOW_HASHING_H_

#include <bit>
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

}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_HASHING_H_
