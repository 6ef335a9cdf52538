#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace parcoll::obs {

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  auto& object = std::get<Object>(value_);
  for (auto& [k, v] : object) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
  return *this;
}

void JsonValue::push(JsonValue value) {
  std::get<Array>(value_).push_back(std::move(value));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [k, v] : std::get<Object>(value_)) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::int64_t JsonValue::as_int() const {
  if (type() == Type::Uint) {
    return static_cast<std::int64_t>(std::get<std::uint64_t>(value_));
  }
  if (type() == Type::Double) {
    return static_cast<std::int64_t>(std::get<double>(value_));
  }
  return std::get<std::int64_t>(value_);
}

std::uint64_t JsonValue::as_uint() const {
  if (type() == Type::Int) {
    return static_cast<std::uint64_t>(std::get<std::int64_t>(value_));
  }
  if (type() == Type::Double) {
    return static_cast<std::uint64_t>(std::get<double>(value_));
  }
  return std::get<std::uint64_t>(value_);
}

double JsonValue::as_double() const {
  switch (type()) {
    case Type::Int:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Type::Uint:
      return static_cast<double>(std::get<std::uint64_t>(value_));
    default:
      return std::get<double>(value_);
  }
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // The shortest %g form that reads back as v. std::to_chars finds the
  // fewest significant digits that can; %g at that precision rounds to the
  // nearest number of that length, which reads back too, except beside a
  // power of two, where the shortest digits need not be the nearest ones
  // and %g needs one digit more.
  char buf[32];
  const char* const shortest =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific)
          .ptr;
  int precision = 0;
  for (const char* c = buf; c != shortest && *c != 'e'; ++c) {
    precision += *c >= '0' && *c <= '9' ? 1 : 0;
  }
  for (;; ++precision) {
    const int length = std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    double back = 0;
    std::from_chars(buf, buf + length, back);
    if (back == v || precision >= 17) {
      out.append(buf, static_cast<std::size_t>(length));
      return;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  // Recursive serializer shared by compact and pretty forms.
  auto emit = [&](auto&& self, const JsonValue& v, int depth) -> void {
    const bool pretty = indent >= 0;
    auto newline_pad = [&](int d) {
      if (pretty) {
        out += '\n';
        out.append(static_cast<std::size_t>(d * indent), ' ');
      }
    };
    switch (v.type()) {
      case Type::Null: out += "null"; break;
      case Type::Bool: out += v.as_bool() ? "true" : "false"; break;
      case Type::Int: out += std::to_string(std::get<std::int64_t>(v.value_)); break;
      case Type::Uint: out += std::to_string(std::get<std::uint64_t>(v.value_)); break;
      case Type::Double: append_double(out, std::get<double>(v.value_)); break;
      case Type::String: append_escaped(out, v.as_string()); break;
      case Type::Array: {
        const auto& items = v.items();
        out += '[';
        for (std::size_t i = 0; i < items.size(); ++i) {
          if (i > 0) out += ',';
          newline_pad(depth + 1);
          self(self, items[i], depth + 1);
        }
        if (!items.empty()) newline_pad(depth);
        out += ']';
        break;
      }
      case Type::Object: {
        const auto& members = v.members();
        out += '{';
        for (std::size_t i = 0; i < members.size(); ++i) {
          if (i > 0) out += ',';
          newline_pad(depth + 1);
          append_escaped(out, members[i].first);
          out += pretty ? ": " : ":";
          self(self, members[i].second, depth + 1);
        }
        if (!members.empty()) newline_pad(depth);
        out += '}';
        break;
      }
    }
  };
  emit(emit, *this, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue(string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("bad literal");
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through individually; the exporters only emit ASCII anyway).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    try {
      if (!is_double) {
        if (token[0] == '-') {
          return JsonValue(static_cast<std::int64_t>(std::stoll(token)));
        }
        return JsonValue(static_cast<std::uint64_t>(std::stoull(token)));
      }
    } catch (const std::out_of_range&) {
      // Falls through to double below.
    }
    return JsonValue(std::stod(token));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace parcoll::obs
