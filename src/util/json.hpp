// Minimal JSON for tooling (bench-diff, bench reports, the CLI's --format
// json). The reader parses the subset the repo's own emitters produce —
// objects, arrays, strings with escapes, numbers (including exponents),
// booleans, null — into a small value tree. Not a streaming parser and not
// meant for hostile input sizes; depth is bounded to keep malformed input
// from recursing away the stack. The writer, JsonObject, builds one object
// member by member.
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace bsutil {

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by the JSON log sink, the bsobs
/// JSON exporters and JsonObject.
std::string JsonEscape(const std::string& s);

/// A JSON array of already-rendered elements.
std::string JsonArray(const std::vector<std::string>& elements);

/// One JSON object, rendered member by member in call order. Floating-point
/// values print with %.10g, integers in full, strings escaped.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  template <typename Int,
            std::enable_if_t<std::is_integral_v<Int> && !std::is_same_v<Int, bool>, int> = 0>
  JsonObject& Add(const std::string& key, Int value) {
    return AddRaw(key, std::to_string(value));
  }
  /// `raw` must already be valid JSON (object, array or number).
  JsonObject& AddRaw(const std::string& key, const std::string& raw);

  std::string Render() const { return body_ + "}"; }

 private:
  std::string body_ = "{";
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  // Insertion order preserved; duplicate keys keep both (Find returns the
  // first), matching what a text diff of the source file would show.
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parse `text` as one JSON document (trailing whitespace allowed, trailing
/// garbage rejected). nullopt on any syntax error.
std::optional<JsonValue> ParseJson(const std::string& text);

/// Depth-first flatten of every numeric leaf under `value`, keyed by
/// dotted path ("results.events_per_sec", "stages.codec_decode.p50_ns",
/// "metrics.counters.bs_..."). Array elements use the index as the path
/// component. Booleans flatten as 0/1; strings and nulls are skipped.
void FlattenJsonNumbers(const JsonValue& value, const std::string& prefix,
                        std::vector<std::pair<std::string, double>>& out);

}  // namespace bsutil
