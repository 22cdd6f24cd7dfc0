// Tiny JSON output helpers shared by the obs exporters. Writing only —
// the simulator never parses JSON.
//
// There is one escaper (`append_json_string`) and one number formatter
// (`append_json_number`); both append to a flat `std::string`. The
// high-volume record writers (trace events, spans, Chrome records) fill
// a `JsonBuf` and hand it to the stream in ~64 KB blocks instead of one
// character, literal or number at a time. The ostream overloads below
// are thin wrappers for the low-volume documents.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace dope::obs {

/// Appends `s` as a JSON string literal (quotes included). Runs of bytes
/// that need no escape are copied in one go; bytes >= 0x80 pass through
/// untouched, so UTF-8 stays UTF-8.
inline void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default: {
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof(esc));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

/// Appends a double as a JSON number, formatted as `printf("%.12g")`
/// (round-trippable without drowning the file in digits). JSON has no
/// inf/nan; those become null.
inline void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out.append("null");
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 12);
  out.append(buf, res.ptr);
}

/// Appends `to_seconds(t)` exactly as `append_json_number` would. From
/// 100 µs up to 1e11 µs, `%.12g` of t/1e6 is fixed notation with every
/// digit exact, so whole seconds and the microsecond fraction (trailing
/// zeros stripped) are printed from the integer; other values take the
/// double path.
inline void append_json_seconds(std::string& out, Time t) {
  if (t < 100 || t >= 100'000'000'000) {
    append_json_number(out, to_seconds(t));
    return;
  }
  char buf[24];
  char* p = std::to_chars(buf, buf + sizeof(buf), t / 1'000'000).ptr;
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
  out.append(buf, p);
}

/// Writes `s` as a JSON string literal (quotes included).
inline void write_json_string(std::ostream& out, std::string_view s) {
  std::string buf;
  append_json_string(buf, s);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Writes a double as a JSON number (JSON has no inf/nan; emit null).
inline void write_json_number(std::ostream& out, double v) {
  std::string buf;
  append_json_number(buf, v);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// Flat buffer the record writers append JSON text to. Callers `spill`
/// between records, which hands the text to the stream once a block has
/// built up, and `flush` at the end.
class JsonBuf {
 public:
  /// Pending bytes at which `spill` writes the buffer out.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  JsonBuf() { buf_.reserve(kBlockBytes + kBlockBytes / 4); }

  JsonBuf& raw(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  JsonBuf& raw(char c) {
    buf_.push_back(c);
    return *this;
  }
  /// A quoted, escaped JSON string.
  JsonBuf& str(std::string_view s) {
    append_json_string(buf_, s);
    return *this;
  }
  /// A double as `%.12g`, or null.
  JsonBuf& num(double v) {
    append_json_number(buf_, v);
    return *this;
  }
  /// An integer in `base` (lower-case digits past 9, no prefix).
  template <std::integral T>
  JsonBuf& integer(T v, int base = 10) {
    char tmp[72];
    buf_.append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v, base).ptr);
    return *this;
  }
  /// A timestamp in seconds, as `num(to_seconds(t))` prints it.
  JsonBuf& seconds(Time t) {
    append_json_seconds(buf_, t);
    return *this;
  }

  /// Writes the pending text to `out` once at least a block is pending.
  void spill(std::ostream& out) {
    if (buf_.size() >= kBlockBytes) flush(out);
  }
  /// Writes all pending text to `out`.
  void flush(std::ostream& out) {
    out.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  std::string buf_;
};

}  // namespace dope::obs
