// Checked numeric parsing for command-line flags and serve job keys.
//
// std::stoi and friends accept a numeric prefix ("2x" parses as 2), NaN and
// out-of-range values, and report failures with bare messages ("stoi").
// parse_number requires the whole string to be consumed and the value to be
// finite and inside [lo, hi]; anything else is an InputError that names the
// flag or key.
#pragma once

#include <charconv>
#include <limits>
#include <sstream>
#include <string>

#include "util/assert.hpp"

namespace rapids {

template <class T>
T parse_number(const std::string& text, const std::string& what,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // NaN fails both comparisons; infinities fail the finite bounds.
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream os;
    os << "bad value for " << what << ": '" << text << "' (expected a number in ["
       << +lo << ", " << +hi << "])";
    throw InputError(os.str());
  }
  return value;
}

}  // namespace rapids
