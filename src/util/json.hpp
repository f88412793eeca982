// Minimal JSON value type with a recursive-descent parser and compact /
// pretty serializers. Used by the HTTP API (src/serve) and the framework
// configuration loader (src/core). Supports the full JSON grammar except
// \u surrogate pairs beyond the BMP (sufficient for our ASCII payloads;
// unknown escapes are preserved verbatim rather than rejected).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace mcb {

/// Deepest array/object nesting Json::parse accepts. The parser is
/// recursive descent, so the limit bounds its stack use on hostile input.
inline constexpr std::size_t kJsonMaxDepth = 512;

/// Most values (scalars and containers, a duplicate key's dropped value
/// included) Json::parse builds from one text. The largest request the
/// API accepts, a 4096-job /classify_batch of 19-field jobs, holds about
/// 82,000; without this bound a 16 MiB body of `{},` items builds 5.6
/// million values before any handler can refuse it.
inline constexpr std::size_t kJsonMaxElements = std::size_t{1} << 19;

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json, std::less<>>;

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const noexcept { return static_cast<Type>(value_.index()); }
  bool is_null() const noexcept { return type() == Type::Null; }
  bool is_bool() const noexcept { return type() == Type::Bool; }
  bool is_number() const noexcept { return type() == Type::Number; }
  bool is_string() const noexcept { return type() == Type::String; }
  bool is_array() const noexcept { return type() == Type::Array; }
  bool is_object() const noexcept { return type() == Type::Object; }

  bool as_bool(bool fallback = false) const noexcept;
  double as_double(double fallback = 0.0) const noexcept;
  std::int64_t as_int(std::int64_t fallback = 0) const noexcept;
  const std::string& as_string() const;  ///< empty string if not a string
  const JsonArray& as_array() const;     ///< empty array if not an array
  const JsonObject& as_object() const;   ///< empty object if not an object

  /// Object field access; returns a shared null for missing keys.
  const Json& operator[](std::string_view key) const;
  /// Mutable object access; converts this value to an object if needed.
  Json& set(std::string key, Json value);
  bool contains(std::string_view key) const;

  /// Array helpers.
  Json& push_back(Json value);
  std::size_t size() const noexcept;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string pretty() const;

  /// Parse; returns std::nullopt and fills `error` (if given) on failure,
  /// including nesting deeper than kJsonMaxDepth and texts of more than
  /// kJsonMaxElements values.
  static std::optional<Json> parse(std::string_view text, std::string* error = nullptr);

  friend bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

 private:
  void write(std::string& out, int indent, int depth) const;
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// Escape a string for inclusion in JSON output (without quotes).
std::string json_escape(std::string_view raw);

}  // namespace mcb
