// Command-line argument cursor shared by the dopesim_cli, dopesweep,
// dopefuzz and dopereport front-ends.
//
// Every conversion reads the whole text: "8abc", " 8" and "" are errors,
// never 8. Counts are non-negative decimal integers, seeds are exact
// 64-bit integers (std::stoull base 0, so 0x hex works; no double
// round-trip) and numbers are finite. Errors throw std::invalid_argument
// naming the flag; each main prints it as "<tool>: <message> (see
// --help)" and exits 2.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace dope::cli {

/// Full-string conversions; nullopt unless `text` is exactly one value.
std::optional<double> to_number(const std::string& text);
/// Unsigned, in `base` (0 = std::stoull's prefix detection); no sign.
std::optional<std::uint64_t> to_unsigned(const std::string& text,
                                         int base = 10);

class ArgCursor {
 public:
  static constexpr std::size_t kNoMax =
      std::numeric_limits<std::size_t>::max();

  ArgCursor(int argc, const char* const* argv) : args_(argv, argv + argc) {}

  /// Advances to the next flag; false once every argument is consumed.
  bool next();
  /// The argument `next()` stopped on.
  const std::string& flag() const { return args_[flag_]; }

  /// Consumes the current flag's value, converted.
  const std::string& value();
  double number();
  std::size_t count(std::size_t max = kNoMax) {
    return as_count(value(), max);
  }
  int integer();
  std::uint64_t seed();

  /// Converts a part of a value (e.g. one half of "R:C").
  std::size_t as_count(const std::string& text,
                       std::size_t max = kNoMax) const;

  /// Throws "unknown flag: <flag>".
  [[noreturn]] void unknown() const;

 private:
  std::vector<std::string> args_;  // [0] is the program name
  std::size_t flag_ = 0;
  std::size_t pos_ = 0;  // last consumed argument
};

}  // namespace dope::cli
