// Strict number parsing for command-line flags: the whole token must be the
// number, and the number must lie in the caller's range. A typo ("ten",
// "1O") or an out-of-range value is an error, never a silent 0 or prefix.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace bsutil {

/// `text` as a whole decimal number in [lo, hi]; nullopt for anything else
/// (a sign, a fraction or exponent, trailing characters, overflow).
inline std::optional<std::uint64_t> ParseUint(const std::string& text, std::uint64_t lo,
                                              std::uint64_t hi) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0' || value < lo || value > hi) return std::nullopt;
  return value;
}

/// `text` as a finite number in [lo, hi]; nullopt for anything else.
inline std::optional<double> ParseDouble(const std::string& text, double lo, double hi) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value) || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace bsutil
