// Bitwise comparison of doubles for the bit-identity suites. `==` on
// doubles says +0.0 == -0.0, so a sign flip of a zero (the first thing a
// change of rounding order shows) passes ASSERT_EQ on values. Comparing
// bit patterns catches it.
#pragma once

#include <bit>
#include <cstdint>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccg {

namespace bits_detail {

template <typename T>
struct is_pair : std::false_type {};
template <typename A, typename B>
struct is_pair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct is_tuple : std::false_type {};
template <typename... Ts>
struct is_tuple<std::tuple<Ts...>> : std::true_type {};

}  // namespace bits_detail

/// `value` with every double replaced by its IEEE-754 bit pattern, through
/// pairs, tuples and ranges (a range becomes a vector, a map a vector of
/// key/value pairs), so `==` on two results compares their bits.
template <typename T>
auto bits(const T& value) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(value);
  } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return value;
  } else if constexpr (bits_detail::is_pair<T>::value) {
    return std::pair(bits(value.first), bits(value.second));
  } else if constexpr (bits_detail::is_tuple<T>::value) {
    return std::apply([](const auto&... e) { return std::tuple(bits(e)...); }, value);
  } else {
    std::vector<decltype(bits(*std::begin(value)))> out;
    for (const auto& e : value) out.push_back(bits(e));
    return out;
  }
}

}  // namespace ccg
