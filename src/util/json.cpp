#include "util/json.hpp"

#include <cmath>
#include <cstdio>

namespace mcb {
namespace {

const Json kNull{};
const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  std::size_t depth = 0;     ///< containers currently open
  std::size_t elements = 0;  ///< values started so far

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool fail(std::string msg) {
    if (error.empty()) error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    // Bounds the memory one text can make the parser allocate, well
    // below what the body-size cap alone would allow.
    if (++elements > kJsonMaxElements) {
      return fail("more than " + std::to_string(kJsonMaxElements) + " values");
    }
    switch (peek()) {
      case '{':
      case '[': {
        // Each open container is a level of recursion; an unbounded
        // depth lets a short body of brackets overflow the stack.
        if (depth == kJsonMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kJsonMaxDepth) + " levels");
        }
        ++depth;
        const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case 't': return parse_literal("true", Json(true), out);
      case 'f': return parse_literal("false", Json(false), out);
      case 'n': return parse_literal("null", Json(nullptr), out);
      default: return parse_number(out);
    }
  }

  bool parse_literal(std::string_view lit, Json value, Json& out) {
    if (text.substr(pos, lit.size()) != lit) return fail("invalid literal");
    pos += lit.size();
    out = std::move(value);
    return true;
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    if (!at_end() && (peek() == '-' || peek() == '+')) ++pos;
    while (!at_end() && ((peek() >= '0' && peek() <= '9') || peek() == '.' || peek() == 'e' ||
                         peek() == 'E' || peek() == '-' || peek() == '+')) {
      ++pos;
    }
    if (pos == start) return fail("invalid number");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("invalid number");
    out = Json(v);
    return true;
  }

  bool parse_string(std::string& out) {
    if (at_end() || peek() != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (!at_end()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("bad escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(Json& out) {
    ++pos;  // '['
    JsonArray arr;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos;
      out = Json(std::move(arr));
      return true;
    }
    for (;;) {
      Json element;
      if (!parse_value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      const char c = text[pos++];
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']'");
    }
    out = Json(std::move(arr));
    return true;
  }

  bool parse_object(Json& out) {
    ++pos;  // '{'
    JsonObject obj;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos;
      out = Json(std::move(obj));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (at_end() || text[pos++] != ':') return fail("expected ':'");
      Json value;
      if (!parse_value(value)) return false;
      obj.emplace(std::move(key), std::move(value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      const char c = text[pos++];
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}'");
    }
    out = Json(std::move(obj));
    return true;
  }
};

void write_number(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  } else if (std::isfinite(v)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  } else {
    out += "null";  // JSON has no Inf/NaN
  }
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool Json::as_bool(bool fallback) const noexcept {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  return fallback;
}

double Json::as_double(double fallback) const noexcept {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  return fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const noexcept {
  if (const double* d = std::get_if<double>(&value_)) return static_cast<std::int64_t>(std::llround(*d));
  return fallback;
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  return kEmptyString;
}

const JsonArray& Json::as_array() const {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return *a;
  return kEmptyArray;
}

const JsonObject& Json::as_object() const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return *o;
  return kEmptyObject;
}

const Json& Json::operator[](std::string_view key) const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    const auto it = o->find(key);
    if (it != o->end()) return it->second;
  }
  return kNull;
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) value_ = JsonObject{};
  auto& obj = std::get<JsonObject>(value_);
  obj[std::move(key)] = std::move(value);
  return *this;
}

bool Json::contains(std::string_view key) const {
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) {
    return o->find(key) != o->end();
  }
  return false;
}

Json& Json::push_back(Json value) {
  if (!is_array()) value_ = JsonArray{};
  std::get<JsonArray>(value_).push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const noexcept {
  if (const JsonArray* a = std::get_if<JsonArray>(&value_)) return a->size();
  if (const JsonObject* o = std::get_if<JsonObject>(&value_)) return o->size();
  return 0;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::Number: write_number(out, std::get<double>(value_)); break;
    case Type::String:
      out += '"';
      out += json_escape(std::get<std::string>(value_));
      out += '"';
      break;
    case Type::Array: {
      const auto& arr = std::get<JsonArray>(value_);
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        arr[i].write(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      const auto& obj = std::get<JsonObject>(value_);
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += json_escape(key);
        out += "\":";
        if (indent > 0) out += ' ';
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Parser parser{text, 0, {}, 0, 0};
  Json out;
  if (!parser.parse_value(out)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (!parser.at_end()) {
    if (error != nullptr) *error = "trailing characters at offset " + std::to_string(parser.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace mcb
