#ifndef TDB_COMMON_JSON_H_
#define TDB_COMMON_JSON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tdb::common {

/// The one JSON module behind every artifact TDB emits (metrics snapshots,
/// Chrome/Perfetto traces, flight-recorder bundles) and every reader of
/// them (tdbstat --check/--health/--trace/--snapshot, the tests).

/// Appends `s` as a quoted JSON string: `"` and `\` are backslash-escaped,
/// newline/tab/carriage return use their short escapes, and every other
/// control byte becomes \u00XX. Other bytes pass through unchanged.
void AppendJsonString(std::string_view s, std::string* out);

/// Strict pull reader over one JSON document. The caller walks the
/// document it expects with Object/Array/String/Int, Skip()s members it
/// does not know, and ends with Finish(), which also requires that nothing
/// but whitespace follows the document.
///
/// Accepted: objects, arrays, strings (raw control bytes rejected; escapes
/// \" \\ \/ \b \f \n \r \t and \uXXXX below 0x80), numbers in JSON syntax,
/// and the literals true/false/null. Every number must fit int64_t after
/// its fraction is truncated (Int() returns that truncation); an
/// out-of-range number is an error even inside a skipped member. Nesting
/// deeper than kMaxDepth is rejected.
///
/// Every call returns false on failure; the first failure (and its byte
/// offset) is kept and reported by Finish(), and later calls fail too.
class JsonReader {
 public:
  static constexpr int kMaxDepth = 64;

  explicit JsonReader(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  /// Reads an object, calling `member(key)` positioned at each member's
  /// value; `member` must consume exactly that value.
  bool Object(const std::function<bool(const std::string& key)>& member);
  /// Reads an array, calling `element()` positioned at each element.
  bool Array(const std::function<bool()>& element);
  bool String(std::string* out);
  bool Int(int64_t* out);
  /// Reads and discards one value of any type.
  bool Skip();

  /// Records a failure the caller found in a well-formed value (a field
  /// out of range, say). Returns false.
  bool Fail(std::string why);

  /// OK, or InvalidArgument("<what>: <first failure> at offset N").
  Status Finish(std::string_view what);

 private:
  void SkipWhitespace();
  bool Consume(char c);
  bool Expect(char c);
  bool Digits();
  bool Literal(std::string_view word);

  const char* begin_;
  const char* p_;
  const char* end_;
  int depth_ = 0;
  bool failed_ = false;
  std::string why_;
  size_t at_ = 0;
};

}  // namespace tdb::common

#endif  // TDB_COMMON_JSON_H_
