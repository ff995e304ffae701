#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ucqn {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

bool JsonValue::GetCount(const std::string& key, std::uint64_t* out,
                         std::string* error) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return true;
  // 2^64 is exact in a double; every integral double below it fits.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double n = v->is_number() ? v->AsNumber() : -1.0;
  if (!(n >= 0.0 && n < kTwoTo64 && n == std::floor(n))) {
    if (error != nullptr) {
      *error = "\"" + key + "\" must be an integer in [0, 2^64)";
    }
    return false;
  }
  *out = static_cast<std::uint64_t>(n);
  return true;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += "\"";
  return out;
}

namespace {

std::string FormatJsonNumber(double n) {
  // Integral values (counters, TTLs, ids) print without a decimal point
  // so round-trips stay byte-stable with the repo's hand-rolled emitters.
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
    return buf;
  }
  if (!std::isfinite(n)) return "0";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", n);
  return buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ < text_.size()) return Fail("trailing characters");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool AppendCodepoint(unsigned long cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return true;
  }

  bool ParseHex4(unsigned long* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned long value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned long>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned long>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned long>(c - 'A' + 10);
      else return Fail("bad \\u escape digit");
    }
    *out = value;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail("expected '\"'");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned long cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned long low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendCodepoint(cp, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // Consumes a run of digits; false when there is none.
  bool Digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (At('-')) ++pos_;
    if (At('0')) {
      ++pos_;
    } else if (!Digits()) {
      return Fail(pos_ == start ? "expected a number" : "malformed number");
    }
    if (At('.')) {
      ++pos_;
      if (!Digits()) return Fail("malformed number");
    }
    if (At('e') || At('E')) {
      ++pos_;
      if (At('+') || At('-')) ++pos_;
      if (!Digits()) return Fail("malformed number");
    }
    // A number runs into the next token only through a character that
    // could have continued it ("1.2.3", "01", "1e5e").
    if (pos_ < text_.size() &&
        std::strchr("0123456789.eE+-", text_[pos_]) != nullptr) {
      return Fail("malformed number");
    }
    const double value =
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(value)) return Fail("number out of range");
    *out = JsonValue::Number(value);
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      *out = JsonValue::Object();
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipSpace();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->Set(std::move(key), std::move(value));
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      *out = JsonValue::Array();
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->Append(std::move(value));
        SkipSpace();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      *out = JsonValue::String(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!Literal("true", 4)) return false;
      *out = JsonValue::Bool(true);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false", 5)) return false;
      *out = JsonValue::Bool(false);
      return true;
    }
    if (c == 'n') {
      if (!Literal("null", 4)) return false;
      *out = JsonValue::Null();
      return true;
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string JsonValue::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber:
      return FormatJsonNumber(number_);
    case Kind::kString:
      return JsonQuote(string_);
    case Kind::kArray: {
      std::string out = "[";
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) out += ", ";
        first = false;
        out += v.Dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ", ";
        first = false;
        out += JsonQuote(k) + ": " + v.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error) {
  Parser parser(text);
  JsonValue value;
  if (!parser.Parse(&value)) {
    if (error != nullptr) *error = parser.error();
    return std::nullopt;
  }
  return value;
}

}  // namespace ucqn
