// Fuzz/property harness for the JSON parser every API body goes through.
//
// Properties checked on arbitrary bytes:
//   P1  Json::parse never crashes, hangs or aborts; a rejection always
//       carries a diagnostic.
//   P2  nesting is bounded: an accepted value is at most kJsonMaxDepth
//       containers deep, and wrapping an input in arrays is accepted
//       exactly while the total depth stays within kJsonMaxDepth.
//   P3  for an accepted input, dump(parse(dump(v))) == dump(v).
//   P4  size is bounded: an accepted text holds at most kJsonMaxElements
//       values, and wrapping it in arrays is accepted exactly while the
//       total value count stays within kJsonMaxElements.
#include <algorithm>
#include <string>
#include <string_view>

#include "util/json.hpp"
#include "tests/fuzz_common.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_json: property violated: %s\n", what);
    std::abort();
  }
}

/// Containers on the deepest path of `v` (a scalar is depth 0).
std::size_t depth_of(const mcb::Json& v) {
  std::size_t deepest = 0;
  if (v.is_array()) {
    for (const mcb::Json& element : v.as_array()) deepest = std::max(deepest, depth_of(element));
  } else if (v.is_object()) {
    for (const auto& [key, value] : v.as_object()) deepest = std::max(deepest, depth_of(value));
  } else {
    return 0;
  }
  return deepest + 1;
}

struct TextShape {
  std::size_t depth = 0;   ///< deepest container nesting
  std::size_t values = 0;  ///< scalars and containers, keys excluded
};

/// Shape of a valid JSON text. It can exceed the parsed value's: a
/// duplicate key's value is parsed, then dropped.
TextShape text_shape(std::string_view text) {
  TextShape shape;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      for (++i; text[i] != '"'; ++i) {
        if (text[i] == '\\') ++i;
      }
      // A string followed by ':' is a key, not a value.
      std::size_t next = i + 1;
      while (next < text.size() &&
             std::string_view(" \t\n\r").find(text[next]) != std::string_view::npos) {
        ++next;
      }
      if (next == text.size() || text[next] != ':') ++shape.values;
    } else if (c == '[' || c == '{') {
      ++shape.values;
      shape.depth = std::max(shape.depth, ++depth);
    } else if (c == ']' || c == '}') {
      --depth;
    } else if (std::string_view(" \t\n\r,:").find(c) == std::string_view::npos) {
      // A number or literal: one value up to the next delimiter.
      ++shape.values;
      while (i + 1 < text.size() &&
             std::string_view(" \t\n\r,:]}").find(text[i + 1]) == std::string_view::npos) {
        ++i;
      }
    }
  }
  return shape;
}

/// Values of a parsed tree (scalars and containers).
std::size_t values_of(const mcb::Json& v) {
  std::size_t count = 1;
  if (v.is_array()) {
    for (const mcb::Json& element : v.as_array()) count += values_of(element);
  } else if (v.is_object()) {
    for (const auto& [key, value] : v.as_object()) count += values_of(value);
  }
  return count;
}

/// `text` inside `levels` nested arrays.
std::string wrap(std::string_view text, std::size_t levels) {
  std::string out(levels, '[');
  out += text;
  out.append(levels, ']');
  return out;
}

}  // namespace

int mcb_fuzz_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view raw =
      size > 0 ? std::string_view(reinterpret_cast<const char*>(data), size)
               : std::string_view{};

  std::string error;
  const auto parsed = mcb::Json::parse(raw, &error);                     // P1
  check(parsed.has_value() || !error.empty(), "P1 failure always carries a diagnostic");

  // P2 on the raw bytes: past the limit, any input is rejected.
  check(!mcb::Json::parse(wrap(raw, mcb::kJsonMaxDepth + 1)).has_value(),
        "P2 input nested past kJsonMaxDepth is rejected");
  if (!parsed.has_value()) return 0;

  const TextShape shape = text_shape(raw);
  const std::size_t depth = shape.depth;                                 // P2
  check(depth <= mcb::kJsonMaxDepth, "P2 accepted depth within kJsonMaxDepth");
  check(depth_of(*parsed) <= depth, "P2 the value is no deeper than its text");
  check(shape.values <= mcb::kJsonMaxElements, "P4 accepted values within kJsonMaxElements");
  check(values_of(*parsed) <= shape.values, "P4 the value holds no more values than its text");
  // Each wrapping array is one more value, so wrapping to the depth
  // limit is accepted exactly when the count stays within its limit.
  const std::size_t room = mcb::kJsonMaxDepth - depth;
  const std::size_t value_room = mcb::kJsonMaxElements - shape.values;
  check(mcb::Json::parse(wrap(raw, room)).has_value() == (room <= value_room),
        "P2/P4 wrapping up to both limits is accepted");
  check(!mcb::Json::parse(wrap(raw, room + 1)).has_value(), "P2 one level past the limit is rejected");
  if (value_room < room) {
    check(mcb::Json::parse(wrap(raw, value_room)).has_value(),
          "P4 wrapping to the value limit is accepted");
    check(!mcb::Json::parse(wrap(raw, value_room + 1)).has_value(),
          "P4 one value past the limit is rejected");
  }

  const std::string once = parsed->dump();                               // P3
  const auto reparsed = mcb::Json::parse(once);
  check(reparsed.has_value(), "P3 dump output parses");
  check(reparsed->dump() == once, "P3 dump/parse/dump is a fixed point");
  return 0;
}
