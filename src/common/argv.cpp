#include "common/argv.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>

namespace dope::cli {

namespace {

[[noreturn]] void bad(const std::string& what, const std::string& flag,
                      const std::string& text) {
  throw std::invalid_argument("bad " + what + " for " + flag + ": " + text);
}

}  // namespace

std::optional<double> to_number(const std::string& text) {
  // std::stod skips leading whitespace; a value must start with itself.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  try {
    std::size_t end = 0;
    const double value = std::stod(text, &end);
    if (end == text.size() && std::isfinite(value)) return value;
    return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;  // no digits, or out of double range
  }
}

std::optional<std::uint64_t> to_unsigned(const std::string& text,
                                         int base) {
  // std::stoull accepts a sign (wrapping "-1") and leading whitespace.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  try {
    std::size_t end = 0;
    const auto value = std::stoull(text, &end, base);
    if (end == text.size()) return value;
    return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;  // no digits, or above 2^64 - 1
  }
}

bool ArgCursor::next() {
  if (pos_ + 1 >= args_.size()) return false;
  flag_ = ++pos_;
  return true;
}

const std::string& ArgCursor::value() {
  if (pos_ + 1 >= args_.size()) {
    throw std::invalid_argument("missing value for " + flag());
  }
  return args_[++pos_];
}

int ArgCursor::integer() {
  const std::string& text = value();
  const bool negative = !text.empty() && text[0] == '-';
  const auto magnitude = to_unsigned(negative ? text.substr(1) : text);
  if (!magnitude ||
      *magnitude > static_cast<unsigned>(std::numeric_limits<int>::max())) {
    bad("integer value", flag(), text);
  }
  return negative ? -static_cast<int>(*magnitude)
                  : static_cast<int>(*magnitude);
}

std::uint64_t ArgCursor::seed() {
  const std::string& text = value();
  const auto parsed = to_unsigned(text, 0);
  if (!parsed) bad("seed value", flag(), text);
  return *parsed;
}

double ArgCursor::number() {
  const std::string& text = value();
  const auto parsed = to_number(text);
  if (!parsed) bad("numeric value", flag(), text);
  return *parsed;
}

std::size_t ArgCursor::as_count(const std::string& text,
                                std::size_t max) const {
  const auto parsed = to_unsigned(text);
  if (parsed && *parsed <= max) return *parsed;
  std::string want = "a non-negative integer";
  if (max != kNoMax) want = "an integer in [0, " + std::to_string(max) + "]";
  bad("count", flag(), text + " (want " + want + ")");
}

void ArgCursor::unknown() const {
  throw std::invalid_argument("unknown flag: " + flag());
}

}  // namespace dope::cli
