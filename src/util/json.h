#ifndef UCQN_UTIL_JSON_H_
#define UCQN_UTIL_JSON_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ucqn {

// A minimal JSON document model for the places where the repo's ad-hoc
// emitters meet external input: the daemon's line-delimited protocol
// (server/protocol.h), the cache snapshot files (server/snapshot.h) and
// the stats snapshots (cost/stats_catalog.h). It is the repo's only JSON
// reader and handles the full value grammar — strings with escapes
// (cache keys embed arbitrary constant text), arrays (tuples), booleans
// and null (the distinguished null term).
//
// It is still deliberately small: no streaming, no number fidelity
// beyond double, objects keep insertion order and are scanned linearly.
// Inputs are protocol lines and snapshot files, both bounded.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double n) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = n;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed reads; the value must have the matching kind.
  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object lookup (first match); nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Convenience readers over Find: the default when the key is absent or
  // has the wrong kind.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  // Reads member `key` as a count: an integral number in [0, 2^64). An
  // absent key leaves `*out` alone. Anything else (a negative, fractional
  // or too-large number, or a non-number) returns false and sets `*error`
  // to a one-line reason naming the key.
  bool GetCount(const std::string& key, std::uint64_t* out,
                std::string* error) const;

  // Builders.
  void Append(JsonValue v) { items_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

  // Serializes compactly (no added whitespace beyond ", " / ": "),
  // matching the style of the repo's hand-rolled emitters. Numbers that
  // hold integral values print without a decimal point.
  std::string Dump() const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses one JSON document. Trailing non-whitespace is an error, and
// numbers follow the JSON grammar (no "1.2.3", "--4", "5e" or "+1") and
// must fit a finite double. Returns
// nullopt and sets `*error` (with an offset) on malformed input.
// Supported escapes: \" \\ \/ \b \f \n \r \t and \uXXXX (encoded to
// UTF-8; unpaired surrogates are rejected).
std::optional<JsonValue> ParseJson(const std::string& text,
                                   std::string* error = nullptr);

// Quotes and escapes `s` as a JSON string literal (including the
// surrounding double quotes). Control characters become \u00XX.
std::string JsonQuote(const std::string& s);

}  // namespace ucqn

#endif  // UCQN_UTIL_JSON_H_
