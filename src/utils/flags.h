// Strict parsing of numeric command-line flag values.
//
// atoi/atoll/atof coerce malformed input: "12x" reads as 12, "" as 0, and an
// overflowing value saturates or is undefined. FlagValue<T> instead requires
// the whole string to be a number that fits T (finite, for floating point)
// and otherwise aborts naming the flag, like any other IMDIFF_CHECK failure.
// ParseNumber<T> is the same whole-string test without the abort, for
// callers that report their own context (CSV cells name path, line, column).

#ifndef IMDIFF_UTILS_FLAGS_H_
#define IMDIFF_UTILS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "utils/check.h"

namespace imdiff {

// True when all of `text` is one number that fits T (std::from_chars: no
// leading whitespace or '+', nothing after the number). On false `*out` is
// unspecified.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

template <typename T>
T FlagValue(const char* flag, const char* value) {
  T v{};
  bool ok = ParseNumber(std::string_view(value), &v);
  std::string wanted = "a finite number";
  if constexpr (std::is_integral_v<T>) {
    wanted = "an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]";
  } else {
    ok = ok && std::isfinite(v);
  }
  IMDIFF_CHECK(ok) << flag << "wants" << wanted + ", got '" + value + "'";
  return v;
}

}  // namespace imdiff

#endif  // IMDIFF_UTILS_FLAGS_H_
