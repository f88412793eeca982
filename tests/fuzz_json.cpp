// Fuzz/property harness for the JSON parser every API body goes through.
//
// Properties checked on arbitrary bytes:
//   P1  Json::parse never crashes, hangs or aborts; a rejection always
//       carries a diagnostic.
//   P2  nesting is bounded: an accepted value is at most kJsonMaxDepth
//       containers deep, and wrapping an input in arrays is accepted
//       exactly while the total depth stays within kJsonMaxDepth.
//   P3  for an accepted input, dump(parse(dump(v))) == dump(v).
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

/// Deepest container nesting of a valid JSON text. It can exceed the
/// parsed value's depth: a duplicate key's value is parsed, then dropped.
std::size_t text_depth(std::string_view text) {
  std::size_t depth = 0, deepest = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      deepest = std::max(deepest, ++depth);
    } else if (c == ']' || c == '}') {
      --depth;
    }
  }
  return deepest;
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

  const std::size_t depth = text_depth(raw);                             // P2
  check(depth <= mcb::kJsonMaxDepth, "P2 accepted depth within kJsonMaxDepth");
  check(depth_of(*parsed) <= depth, "P2 the value is no deeper than its text");
  const std::size_t room = mcb::kJsonMaxDepth - depth;
  check(mcb::Json::parse(wrap(raw, room)).has_value(), "P2 wrapping up to the limit is accepted");
  check(!mcb::Json::parse(wrap(raw, room + 1)).has_value(), "P2 one level past the limit is rejected");

  const std::string once = parsed->dump();                               // P3
  const auto reparsed = mcb::Json::parse(once);
  check(reparsed.has_value(), "P3 dump output parses");
  check(reparsed->dump() == once, "P3 dump/parse/dump is a fixed point");
  return 0;
}
