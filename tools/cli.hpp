// Strict parsing of numeric command-line values, shared by the bench and
// tool executables (header-only; the libraries under src/ take no flags).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace vns::cli {

/// Parses all of `text` as a number in [0, max]: base-10 digits for an
/// integer T, decimal or exponent notation for a floating-point T.  Empty
/// input, signs, whitespace, trailing junk, NaN, infinity, and values that
/// overflow T or exceed `max` give nullopt.
template <typename T>
[[nodiscard]] std::optional<T> parse_non_negative(
    std::string_view text, T max = std::numeric_limits<T>::max()) noexcept {
  if (text.empty() || text.front() == '-') return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  if (value > max) return std::nullopt;
  return value;
}

/// The value of numeric flag `flag`; when `text` is not a number in
/// [0, max], prints one line to stderr and exits with status 2.
template <typename T>
[[nodiscard]] T numeric_flag(std::string_view flag, std::string_view text,
                             T max = std::numeric_limits<T>::max()) {
  const auto parsed = parse_non_negative<T>(text, max);
  if (!parsed) {
    std::cerr << "invalid " << flag << " '" << text << "': want ";
    if (std::is_integral_v<T> || max != std::numeric_limits<T>::max()) {
      std::cerr << (std::is_integral_v<T> ? "an integer" : "a number") << " in [0, " << max
                << "]\n";
    } else {
      std::cerr << "a finite non-negative number\n";
    }
    std::exit(2);
  }
  return *parsed;
}

}  // namespace vns::cli
