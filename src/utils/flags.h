// Strict parsing of numeric command-line flag values.
//
// atoi/atoll/atof coerce malformed input: "12x" reads as 12, "" as 0, and an
// overflowing value saturates or is undefined. FlagValue<T> instead requires
// the whole string to be a number that fits T (finite, for floating point)
// and otherwise aborts naming the flag, like any other IMDIFF_CHECK failure.

#ifndef IMDIFF_UTILS_FLAGS_H_
#define IMDIFF_UTILS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

#include "utils/check.h"

namespace imdiff {

template <typename T>
T FlagValue(const char* flag, const char* value) {
  T v{};
  const char* end = value + std::strlen(value);
  const std::from_chars_result r = std::from_chars(value, end, v);
  bool ok = r.ec == std::errc() && r.ptr == end;
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

// The shortest decimal text that FlagValue<T> parses back to exactly `v`
// (std::to_chars), for handing a parsed flag on to a child process.
// std::to_string formats floating point with "%f", so a forwarded 1e-7 would
// arrive as "0.000000".
template <typename T>
std::string FormatFlag(T v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  IMDIFF_CHECK(r.ec == std::errc()) << "cannot format flag value";
  return std::string(buf, r.ptr);
}

}  // namespace imdiff

#endif  // IMDIFF_UTILS_FLAGS_H_
