// Minimal CSV reading and writing (RFC-4180 subset: quoted fields with
// embedded commas/quotes/newlines are supported on input; output quotes
// only when needed).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dope {

/// Splits one CSV record into fields. Handles quoted fields ("" escapes).
std::vector<std::string> parse_csv_line(std::string_view line);

/// Streaming CSV reader over an istream. Does not own the stream.
class CsvReader {
 public:
  /// If `has_header` is true the first row is consumed as column names.
  explicit CsvReader(std::istream& in, bool has_header = true);

  /// Column names (empty when constructed with has_header == false).
  const std::vector<std::string>& header() const { return header_; }

  /// Index of a named column, or nullopt if absent.
  std::optional<std::size_t> column(std::string_view name) const;

  /// Reads the next record; returns false at end of input. Blank lines are
  /// skipped. Multi-line quoted fields are reassembled.
  bool next(std::vector<std::string>& fields);

  /// Number of data records returned so far.
  std::size_t records_read() const { return records_; }

 private:
  bool read_record(std::string& out);

  std::istream& in_;
  std::vector<std::string> header_;
  std::size_t records_ = 0;
};

/// Streaming CSV writer. Quotes fields only when required.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);

  /// Variadic convenience: accepts strings and arithmetic values.
  template <typename... Ts>
  void row(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(to_field(vals)), ...);
    write_row(fields);
  }

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(const char* s) { return s; }
  template <typename T>
  static std::string to_field(const T& v) {
    return std::to_string(v);
  }

  std::ostream& out_;
};

/// Parses a finite double, returning nullopt on malformed input and on
/// `nan`, `inf` and `-inf`.
std::optional<double> parse_double(std::string_view s);

/// Parses a signed 64-bit integer, returning nullopt on malformed input.
std::optional<std::int64_t> parse_int(std::string_view s);

}  // namespace dope
