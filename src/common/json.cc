#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace tdb::common {

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

bool JsonReader::Object(
    const std::function<bool(const std::string& key)>& member) {
  if (!Expect('{')) return false;
  if (++depth_ > kMaxDepth) return Fail("nesting too deep");
  if (!Consume('}')) {
    std::string key;
    do {
      if (!String(&key) || !Expect(':')) return false;
      if (!member(key)) return Fail("bad value for \"" + key + "\"");
    } while (Consume(','));
    if (!Expect('}')) return false;
  }
  depth_--;
  return true;
}

bool JsonReader::Array(const std::function<bool()>& element) {
  if (!Expect('[')) return false;
  if (++depth_ > kMaxDepth) return Fail("nesting too deep");
  if (!Consume(']')) {
    do {
      if (!element()) return Fail("bad array element");
    } while (Consume(','));
    if (!Expect(']')) return false;
  }
  depth_--;
  return true;
}

bool JsonReader::String(std::string* out) {
  if (!Expect('"')) return false;
  out->clear();
  while (p_ < end_ && *p_ != '"') {
    const char c = *p_++;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Fail("control byte in string");
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (p_ == end_) break;
    constexpr std::string_view kEscapes = "\"\\/bfnrt";
    constexpr std::string_view kBytes = "\"\\/\b\f\n\r\t";
    const char e = *p_++;
    if (const size_t i = kEscapes.find(e); i != std::string_view::npos) {
      out->push_back(kBytes[i]);
    } else if (e == 'u') {
      unsigned code = 0;
      const char* hex_end = p_ + std::min<ptrdiff_t>(4, end_ - p_);
      auto [next, ec] = std::from_chars(p_, hex_end, code, 16);
      if (ec != std::errc() || next - p_ != 4 || code >= 0x80) {
        return Fail("bad \\u escape");
      }
      out->push_back(static_cast<char>(code));
      p_ = next;
    } else {
      return Fail("bad escape");
    }
  }
  if (p_ == end_) return Fail("unterminated string");
  p_++;
  return true;
}

bool JsonReader::Int(int64_t* out) {
  SkipWhitespace();
  const char* start = p_;
  if (p_ < end_ && *p_ == '-') p_++;
  const char* digits = p_;
  if (!Digits() || (*digits == '0' && p_ - digits > 1)) {
    return Fail("expected a number");
  }
  bool integral = true;
  if (p_ < end_ && *p_ == '.') {
    p_++;
    if (!Digits()) return Fail("bad fraction");
    integral = false;
  }
  if (p_ < end_ && (*p_ == 'e' || *p_ == 'E')) {
    p_++;
    if (p_ < end_ && (*p_ == '+' || *p_ == '-')) p_++;
    if (!Digits()) return Fail("bad exponent");
    integral = false;
  }
  if (integral) {
    if (std::from_chars(start, p_, *out).ec != std::errc()) {
      return Fail("number out of int64 range");
    }
    return true;
  }
  // Fractions truncate toward zero; 2^63 bounds the int64_t range.
  constexpr double kLimit = 9223372036854775808.0;
  double d = 0;
  if (std::from_chars(start, p_, d).ec != std::errc() ||
      !(d >= -kLimit && d < kLimit)) {
    return Fail("number out of int64 range");
  }
  *out = static_cast<int64_t>(d);
  return true;
}

bool JsonReader::Skip() {
  SkipWhitespace();
  if (p_ == end_) return Fail("expected a value");
  switch (*p_) {
    case '{':
      return Object([this](const std::string&) { return Skip(); });
    case '[':
      return Array([this] { return Skip(); });
    case '"': {
      std::string ignored;
      return String(&ignored);
    }
    case 't': return Literal("true");
    case 'f': return Literal("false");
    case 'n': return Literal("null");
    default: {
      int64_t ignored = 0;
      return Int(&ignored);
    }
  }
}

bool JsonReader::Fail(std::string why) {
  if (!failed_) {
    failed_ = true;
    why_ = std::move(why);
    at_ = static_cast<size_t>(p_ - begin_);
  }
  p_ = end_;  // Every later read fails too.
  return false;
}

Status JsonReader::Finish(std::string_view what) {
  SkipWhitespace();
  if (p_ != end_) Fail("trailing bytes after the document");
  if (!failed_) return Status::OK();
  return Status::InvalidArgument(std::string(what) + ": " + why_ +
                                 " at offset " + std::to_string(at_));
}

void JsonReader::SkipWhitespace() {
  while (p_ < end_ &&
         (*p_ == ' ' || *p_ == '\n' || *p_ == '\t' || *p_ == '\r')) {
    p_++;
  }
}

bool JsonReader::Consume(char c) {
  SkipWhitespace();
  if (p_ == end_ || *p_ != c) return false;
  p_++;
  return true;
}

bool JsonReader::Expect(char c) {
  return Consume(c) || Fail(std::string("expected '") + c + "'");
}

bool JsonReader::Digits() {
  const char* start = p_;
  while (p_ < end_ && *p_ >= '0' && *p_ <= '9') p_++;
  return p_ != start;
}

bool JsonReader::Literal(std::string_view word) {
  if (std::string_view(p_, static_cast<size_t>(end_ - p_))
          .substr(0, word.size()) != word) {
    return Fail("bad literal");
  }
  p_ += word.size();
  return true;
}

}  // namespace tdb::common
