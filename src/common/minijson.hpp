// Minimal JSON document model + strict recursive-descent parser.
//
// Shared by every in-tree reader of our own JSON artifacts: fuzz
// `.repro.json` files (src/fuzz/repro.cpp) and flight-recorder
// incident bundles (src/obs/report.cpp, `dopereport`). It parses the
// subset our writers emit — objects, arrays, strings, numbers,
// true/false/null; string escapes `\" \\ \/ \n \r \t` only, `\uXXXX`
// rejected — and keeps numeric tokens as raw text so 64-bit seeds are
// never squeezed through a double.
//
// Containers may nest at most 64 deep. Errors throw std::runtime_error
// with a "json: " prefix; callers that want their own prefix catch and
// re-throw.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dope::minijson {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// String payload, or the raw numeric token (so 64-bit integers are
  /// never squeezed through a double).
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  const Value* find(const std::string& key) const {
    for (const auto& [name, value] : fields) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

/// Parses one complete JSON document; trailing garbage is an error.
Value parse(std::string text);

// ---- typed field access ----
//
// `key` is only used in error messages, so array contexts can pass a
// descriptive pseudo-path like "weights[]". Numbers convert in full
// (common/argv.hpp's `cli::to_number` / `cli::to_unsigned`): "1.5" or
// "1-2" is no integer, a value out of range or not finite is an error,
// and a seed string "-1" never wraps to 2^64 - 1.

const Value& require(const Value& obj, const std::string& key);
double as_double(const Value& value, const std::string& key);
std::int64_t as_i64(const Value& value, const std::string& key);
/// A u64 stored as a decimal string (see file comment on precision).
std::uint64_t as_u64_string(const Value& value, const std::string& key);
std::string as_string(const Value& value, const std::string& key);
bool as_bool(const Value& value, const std::string& key);

}  // namespace dope::minijson
