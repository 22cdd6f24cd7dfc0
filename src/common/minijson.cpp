#include "common/minijson.hpp"

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/argv.hpp"

namespace dope::minijson {

namespace {

/// Containers nested deeper than this are rejected, which bounds the
/// parser's recursion on hostile input. Our own documents nest far
/// less: an incident bundle reaches depth 7, a `.repro.json` depth 4.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("json: " + message);
}

/// Recursive-descent parser for the JSON subset our writers emit (see
/// header).
class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  Value parse() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Value parse_value() {
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      Value value = c == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') return parse_null();
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value value;
    value.kind = Value::Kind::kObject;
    if (consume('}')) return value;
    while (true) {
      Value key = parse_string();
      expect(':');
      value.fields.emplace_back(std::move(key.text), parse_value());
      if (consume('}')) return value;
      expect(',');
    }
  }

  Value parse_array() {
    expect('[');
    Value value;
    value.kind = Value::Kind::kArray;
    if (consume(']')) return value;
    while (true) {
      value.items.push_back(parse_value());
      if (consume(']')) return value;
      expect(',');
    }
  }

  Value parse_string() {
    expect('"');
    Value value;
    value.kind = Value::Kind::kString;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c != '\\') {
        value.text.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': value.text.push_back('"'); break;
        case '\\': value.text.push_back('\\'); break;
        case '/': value.text.push_back('/'); break;
        case 'n': value.text.push_back('\n'); break;
        case 'r': value.text.push_back('\r'); break;
        case 't': value.text.push_back('\t'); break;
        default: fail("unsupported string escape");
      }
    }
  }

  Value parse_bool() {
    Value value;
    value.kind = Value::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
    } else {
      fail("malformed literal");
    }
    return value;
  }

  Value parse_null() {
    if (text_.compare(pos_, 4, "null") != 0) fail("malformed literal");
    pos_ += 4;
    Value value;
    value.kind = Value::Kind::kNull;
    return value;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    auto at_number_char = [&] {
      if (pos_ >= text_.size()) return false;
      const char c = text_[pos_];
      return (std::isdigit(static_cast<unsigned char>(c)) != 0) ||
             c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E';
    };
    while (at_number_char()) ++pos_;
    if (pos_ == start) fail("malformed value");
    Value value;
    value.kind = Value::Kind::kNumber;
    value.text = text_.substr(start, pos_ - start);
    return value;
  }

  std::string text_;
  std::size_t pos_ = 0;
  /// Containers currently open around `pos_`.
  int depth_ = 0;
};

}  // namespace

Value parse(std::string text) { return Parser(std::move(text)).parse(); }

const Value& require(const Value& obj, const std::string& key) {
  if (obj.kind != Value::Kind::kObject) {
    fail("expected an object around \"" + key + "\"");
  }
  const Value* value = obj.find(key);
  if (value == nullptr) fail("missing field \"" + key + "\"");
  return *value;
}

double as_double(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kNumber) {
    fail("field \"" + key + "\" must be a number");
  }
  const auto parsed = cli::to_number(value.text);
  if (!parsed) {
    fail("field \"" + key + "\" is not a finite number: " + value.text);
  }
  return *parsed;
}

std::int64_t as_i64(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kNumber) {
    fail("field \"" + key + "\" must be an integer");
  }
  const std::string& text = value.text;
  const bool negative = !text.empty() && text[0] == '-';
  const auto magnitude = cli::to_unsigned(negative ? text.substr(1) : text);
  // -2^63 is one further from zero than 2^63 - 1.
  const auto limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (negative ? 1 : 0);
  if (!magnitude || *magnitude > limit) {
    fail("field \"" + key + "\" is not a 64-bit integer: " + text);
  }
  // Unsigned negation wraps, and C++20 defines the conversion back.
  return static_cast<std::int64_t>(negative ? 0 - *magnitude : *magnitude);
}

std::uint64_t as_u64_string(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kString) {
    fail("field \"" + key + "\" must be a decimal string");
  }
  const auto parsed = cli::to_unsigned(value.text);
  if (!parsed) {
    fail("field \"" + key + "\" is not an unsigned 64-bit decimal: " +
         value.text);
  }
  return *parsed;
}

std::string as_string(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kString) {
    fail("field \"" + key + "\" must be a string");
  }
  return value.text;
}

bool as_bool(const Value& value, const std::string& key) {
  if (value.kind != Value::Kind::kBool) {
    fail("field \"" + key + "\" must be a boolean");
  }
  return value.boolean;
}

}  // namespace dope::minijson
