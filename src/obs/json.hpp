// Tiny JSON output helpers shared by the obs exporters. Writing only —
// the simulator never parses JSON.
//
// There is one escaper (`put_json_string`), one number formatter
// (`put_json_number`) and one seconds formatter (`put_json_seconds`).
// Each writes into a caller-sized char array and returns the new end.
// The high-volume record writers (trace events, spans, Chrome records)
// fill a `JsonBuf`, a flat char buffer that makes one capacity check per
// append and hands the text to the stream in ~64 KB blocks.
// `append_json_string` and the ostream helpers for the low-volume
// documents call the same writers.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

#include "common/units.hpp"

namespace dope::obs {

/// Bytes `put_json_number` and `put_json_seconds` write at most.
inline constexpr std::size_t kJsonNumberBytes = 32;

/// Bytes `put_json_string` writes at most for `n` input bytes: every
/// byte may become a six-byte \u00XX escape, plus the two quotes.
constexpr std::size_t json_string_bound(std::size_t n) { return 6 * n + 2; }

/// Writes `s` as a JSON string literal (quotes included) at `p`, which
/// must have room for `json_string_bound(s.size())` bytes; returns the
/// end. Runs of bytes that need no escape are copied in one go; bytes
/// >= 0x80 pass through untouched, so UTF-8 stays UTF-8.
inline char* put_json_string(char* p, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *p++ = '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    if (i > run) std::memcpy(p, s.data() + run, i - run);
    p += i - run;
    run = i + 1;
    *p++ = '\\';
    switch (c) {
      case '"': *p++ = '"'; break;
      case '\\': *p++ = '\\'; break;
      case '\n': *p++ = 'n'; break;
      case '\r': *p++ = 'r'; break;
      case '\t': *p++ = 't'; break;
      default:
        p[0] = 'u';
        p[1] = '0';
        p[2] = '0';
        p[3] = kHex[c >> 4];
        p[4] = kHex[c & 0xf];
        p += 5;
    }
  }
  if (s.size() > run) std::memcpy(p, s.data() + run, s.size() - run);
  p += s.size() - run;
  *p++ = '"';
  return p;
}

/// Writes a double as a JSON number at `p` (room for `kJsonNumberBytes`),
/// formatted as `printf("%.12g")` (round-trippable without drowning the
/// file in digits); returns the end. JSON has no inf/nan; those become
/// null.
inline char* put_json_number(char* p, double v) {
  if (!std::isfinite(v)) {
    std::memcpy(p, "null", 4);
    return p + 4;
  }
  // Below 1e12, `%.12g` prints a whole number (a count, an id, whole
  // watts) as its integer. -0.0 prints as "-0", so it takes the general
  // path.
  if (std::fabs(v) < 1e12) {
    const auto whole = static_cast<std::int64_t>(v);
    if (static_cast<double>(whole) == v && (whole != 0 || !std::signbit(v))) {
      return std::to_chars(p, p + kJsonNumberBytes, whole).ptr;
    }
  }
  return std::to_chars(p, p + kJsonNumberBytes, v,
                       std::chars_format::general, 12)
      .ptr;
}

/// Writes `to_seconds(t)` exactly as `put_json_number` would (room for
/// `kJsonNumberBytes`); returns the end. From 100 µs up to 1e11 µs,
/// `%.12g` of t/1e6 is fixed notation with every digit exact, so whole
/// seconds and the microsecond fraction (trailing zeros stripped) are
/// printed from the integer; other values take the double path.
inline char* put_json_seconds(char* p, Time t) {
  if (t < 100 || t >= 100'000'000'000) {
    return put_json_number(p, to_seconds(t));
  }
  p = std::to_chars(p, p + kJsonNumberBytes, t / 1'000'000).ptr;
  Time frac = t % 1'000'000;
  if (frac != 0) {
    int digits = 6;
    while (frac % 10 == 0) {
      frac /= 10;
      --digits;
    }
    *p++ = '.';
    for (int i = digits - 1; i >= 0; --i) {
      p[i] = static_cast<char>('0' + frac % 10);
      frac /= 10;
    }
    p += digits;
  }
  return p;
}

/// Appends `s` as a JSON string literal (see `put_json_string`).
inline void append_json_string(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + json_string_bound(s.size()));
  out.resize(static_cast<std::size_t>(put_json_string(out.data() + at, s) -
                                      out.data()));
}

/// Writes `s` as a JSON string literal (quotes included).
inline void write_json_string(std::ostream& out, std::string_view s) {
  std::string buf;
  append_json_string(buf, s);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Writes a double as a JSON number (JSON has no inf/nan; emit null).
inline void write_json_number(std::ostream& out, double v) {
  char buf[kJsonNumberBytes];
  out.write(buf, put_json_number(buf, v) - buf);
}

/// Flat buffer the record writers append JSON text to: a pointer, a size
/// and a capacity. Each append checks the capacity once and then writes
/// straight into the buffer; string literals are copied at their
/// compile-time length. Callers `spill` between records, which hands the
/// text to the stream once a block has built up, and `flush` at the end.
/// Nothing is allocated until the first append.
class JsonBuf {
 public:
  /// Pending bytes at which `spill` writes the buffer out.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  JsonBuf() = default;
  JsonBuf(const JsonBuf&) = delete;
  JsonBuf& operator=(const JsonBuf&) = delete;

  /// A string literal (its length is the array's, less the NUL). Only
  /// for literals: a char array holding a shorter string would copy the
  /// bytes past its NUL.
  template <std::size_t N>
  JsonBuf& raw(const char (&lit)[N]) {
    std::memcpy(room(N - 1), lit, N - 1);
    size_ += N - 1;
    return *this;
  }
  JsonBuf& raw(std::string_view s) {
    if (!s.empty()) std::memcpy(room(s.size()), s.data(), s.size());
    size_ += s.size();
    return *this;
  }
  JsonBuf& raw(char c) {
    *room(1) = c;
    ++size_;
    return *this;
  }
  /// A quoted, escaped JSON string.
  JsonBuf& str(std::string_view s) {
    return put(json_string_bound(s.size()),
               [s](char* p) { return put_json_string(p, s); });
  }
  /// A double as `%.12g`, or null.
  JsonBuf& num(double v) {
    return put(kJsonNumberBytes,
               [v](char* p) { return put_json_number(p, v); });
  }
  /// An integer in `base` (lower-case digits past 9, no prefix).
  template <std::integral T>
  JsonBuf& integer(T v, int base = 10) {
    // Base 2 is the longest rendering: a digit per bit, and the sign.
    constexpr std::size_t kMax = sizeof(T) * 8 + 1;
    return put(kMax, [v, base](char* p) {
      return std::to_chars(p, p + kMax, v, base).ptr;
    });
  }
  /// A timestamp in seconds, as `num(to_seconds(t))` prints it.
  JsonBuf& seconds(Time t) {
    return put(kJsonNumberBytes,
               [t](char* p) { return put_json_seconds(p, t); });
  }

  /// Writes the pending text to `out` once at least a block is pending.
  void spill(std::ostream& out) {
    if (size_ >= kBlockBytes) flush(out);
  }
  /// Writes all pending text to `out`.
  void flush(std::ostream& out) {
    out.write(data_.get(), static_cast<std::streamsize>(size_));
    size_ = 0;
  }

 private:
  /// The write position, with room for `n` more bytes.
  char* room(std::size_t n) {
    if (capacity_ - size_ < n) grow(n);
    return data_.get() + size_;
  }
  /// Reserves `bound` bytes, lets `write` fill them from the write
  /// position and returns its end, and keeps what it wrote.
  template <class Write>
  JsonBuf& put(std::size_t bound, Write write) {
    char* at = room(bound);
    size_ += static_cast<std::size_t>(write(at) - at);
    return *this;
  }
  /// Reallocates so that `n` more bytes fit: at least a block and a
  /// quarter, and at least double the old capacity.
  void grow(std::size_t n) {
    std::size_t capacity = capacity_ == 0 ? kBlockBytes + kBlockBytes / 4
                                          : 2 * capacity_;
    if (capacity < size_ + n) capacity = size_ + n;
    auto data = std::make_unique_for_overwrite<char[]>(capacity);
    if (size_ > 0) std::memcpy(data.get(), data_.get(), size_);
    data_ = std::move(data);
    capacity_ = capacity;
  }

  std::unique_ptr<char[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace dope::obs
