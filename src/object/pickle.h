#ifndef TDB_OBJECT_PICKLE_H_
#define TDB_OBJECT_PICKLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace tdb::object {

/// Serializes an object's state into a compact byte sequence (§4.1:
/// subclasses of Object "must implement a method to pickle an object into a
/// sequence of bytes"). The encoding is architecture-independent (varints
/// and little-endian fixeds), so a database can move between platforms.
class Pickler {
 public:
  Pickler() = default;
  /// Starts with room for `capacity` bytes, so pickling an object of about
  /// that size does not regrow the buffer as it goes.
  explicit Pickler(size_t capacity) { buf_.reserve(capacity); }

  void PutBool(bool v) { buf_.push_back(v ? 1 : 0); }
  void PutUint32(uint32_t v) { PutVarint32(&buf_, v); }
  void PutUint64(uint64_t v) { PutVarint64(&buf_, v); }
  void PutInt32(int32_t v) { PutUint32(ZigZag32(v)); }
  void PutInt64(int64_t v) { PutUint64(ZigZag64(v)); }
  void PutDouble(double v);
  void PutString(std::string_view s) {
    PutLengthPrefixed(&buf_, Slice(s));
  }
  void PutBytes(Slice bytes) { PutLengthPrefixed(&buf_, bytes); }

  const Buffer& buffer() const { return buf_; }
  Buffer Take() { return std::move(buf_); }
  /// Empties the buffer, keeping its capacity for the next object.
  void Clear() { buf_.clear(); }

 private:
  static uint32_t ZigZag32(int32_t v) {
    return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
  }
  static uint64_t ZigZag64(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }

  Buffer buf_;
};

/// Reads back what a Pickler wrote, in the same order. All getters return
/// Corruption on malformed input (pickled bytes come from the chunk store,
/// which has already validated them, but defense in depth is cheap).
class Unpickler {
 public:
  explicit Unpickler(Slice data) : dec_(data) {}

  Status GetBool(bool* v);
  Status GetUint32(uint32_t* v) { return dec_.GetVarint32(v); }
  Status GetUint64(uint64_t* v) { return dec_.GetVarint64(v); }
  Status GetInt32(int32_t* v);
  Status GetInt64(int64_t* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);
  Status GetBytes(Buffer* bytes);
  /// GetBytes/GetString without the copy: `bytes` points into the
  /// unpickled data.
  Status GetBytesView(Slice* bytes) { return dec_.GetLengthPrefixed(bytes); }

  bool done() const { return dec_.done(); }

 private:
  Decoder dec_;
};

}  // namespace tdb::object

#endif  // TDB_OBJECT_PICKLE_H_
