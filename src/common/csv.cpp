#include "common/csv.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

namespace dope {

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF input.
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

CsvReader::CsvReader(std::istream& in, bool has_header) : in_(in) {
  if (has_header) {
    std::string line;
    if (read_record(line)) {
      header_ = parse_csv_line(line);
    }
  }
}

std::optional<std::size_t> CsvReader::column(std::string_view name) const {
  const auto it = std::find(header_.begin(), header_.end(), name);
  if (it == header_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - header_.begin());
}

bool CsvReader::read_record(std::string& out) {
  out.clear();
  std::string line;
  bool have_any = false;
  while (std::getline(in_, line)) {
    if (!have_any && line.empty()) continue;  // skip blank lines
    if (have_any) out.push_back('\n');
    out += line;
    have_any = true;
    // A record is complete when it contains an even number of quotes.
    const auto quotes = std::count(out.begin(), out.end(), '"');
    if (quotes % 2 == 0) return true;
  }
  return have_any;
}

bool CsvReader::next(std::vector<std::string>& fields) {
  std::string record;
  if (!read_record(record)) return false;
  fields = parse_csv_line(record);
  ++records_;
  return true;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    const std::string& f = fields[i];
    const bool needs_quotes =
        f.find_first_of(",\"\n") != std::string::npos;
    if (needs_quotes) {
      out_ << '"';
      for (char c : f) {
        if (c == '"') out_ << '"';
        out_ << c;
      }
      out_ << '"';
    } else {
      out_ << f;
    }
  }
  out_ << '\n';
}

std::optional<double> parse_double(std::string_view s) {
  // Trim surrounding whitespace; from_chars rejects it.
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, value);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  // from_chars also reads "nan" and "inf"; no CSV field means those.
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<std::int64_t> parse_int(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, value);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return value;
}

}  // namespace dope
