#include "util/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace bsutil {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string JsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ",";
    out += elements[i];
  }
  return out + "]";
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return AddRaw(key, buf);
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, "\"" + JsonEscape(value) + "\"");
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& raw) {
  if (body_.size() > 1) body_ += ",";
  body_ += "\"" + JsonEscape(key) + "\":" + raw;
  return *this;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    SkipWs();
    JsonValue v;
    if (!ParseValue(v, 0)) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.str);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return Literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return Literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      JsonValue child;
      if (!ParseValue(child, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(child));
      SkipWs();
      if (Eat(',')) continue;
      return Eat('}');
    }
  }

  bool ParseArray(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      JsonValue child;
      if (!ParseValue(child, depth + 1)) return false;
      out.array.push_back(std::move(child));
      SkipWs();
      if (Eat(',')) continue;
      return Eat(']');
    }
  }

  bool ParseString(std::string& out) {
    if (!Eat('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our emitters; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

void FlattenJsonNumbers(const JsonValue& value, const std::string& prefix,
                        std::vector<std::pair<std::string, double>>& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNumber:
      out.emplace_back(prefix, value.number);
      break;
    case JsonValue::Kind::kBool:
      out.emplace_back(prefix, value.boolean ? 1.0 : 0.0);
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [k, v] : value.object) {
        FlattenJsonNumbers(v, prefix.empty() ? k : prefix + "." + k, out);
      }
      break;
    case JsonValue::Kind::kArray:
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        FlattenJsonNumbers(value.array[i],
                           prefix.empty() ? std::to_string(i)
                                          : prefix + "." + std::to_string(i),
                           out);
      }
      break;
    case JsonValue::Kind::kNull:
    case JsonValue::Kind::kString:
      break;
  }
}

}  // namespace bsutil
