#include "collection/key.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace tdb::collection {

namespace {

// 64-bit FNV-1a over raw bytes; good enough for a single-user embedded DB.
uint64_t HashBytes(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < size; i++) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
int CompareValues(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// Total order on doubles with NaN sorting last.
int CompareDoubles(double a, double b) {
  bool a_nan = std::isnan(a), b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
  return CompareValues(a, b);
}

}  // namespace

Result<int> GenericKey::ComparePickled(object::Unpickler* stored) const {
  std::unique_ptr<GenericKey> key = Clone();
  TDB_RETURN_IF_ERROR(key->UnpickleFrom(stored));
  return key->Compare(*this);
}

int IntKey::Compare(const GenericKey& other) const {
  return CompareValues(value_, static_cast<const IntKey&>(other).value_);
}

Result<int> IntKey::ComparePickled(object::Unpickler* stored) const {
  int64_t v;
  TDB_RETURN_IF_ERROR(stored->GetInt64(&v));
  return CompareValues(v, value_);
}

uint64_t IntKey::Hash() const { return HashBytes(&value_, sizeof(value_)); }

void IntKey::Pickle(object::Pickler* pickler) const {
  pickler->PutInt64(value_);
}

Status IntKey::UnpickleFrom(object::Unpickler* unpickler) {
  return unpickler->GetInt64(&value_);
}

int StringKey::Compare(const GenericKey& other) const {
  const auto& rhs = static_cast<const StringKey&>(other);
  int c = value_.compare(rhs.value_);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

Result<int> StringKey::ComparePickled(object::Unpickler* stored) const {
  Slice bytes;
  TDB_RETURN_IF_ERROR(stored->GetBytesView(&bytes));
  int c = std::string_view(reinterpret_cast<const char*>(bytes.data()),
                           bytes.size())
              .compare(value_);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

uint64_t StringKey::Hash() const {
  return HashBytes(value_.data(), value_.size());
}

void StringKey::Pickle(object::Pickler* pickler) const {
  pickler->PutString(value_);
}

Status StringKey::UnpickleFrom(object::Unpickler* unpickler) {
  return unpickler->GetString(&value_);
}

int DoubleKey::Compare(const GenericKey& other) const {
  return CompareDoubles(value_, static_cast<const DoubleKey&>(other).value_);
}

Result<int> DoubleKey::ComparePickled(object::Unpickler* stored) const {
  double v;
  TDB_RETURN_IF_ERROR(stored->GetDouble(&v));
  return CompareDoubles(v, value_);
}

uint64_t DoubleKey::Hash() const {
  // Normalize -0.0 so equal keys hash equally.
  double v = value_ == 0.0 ? 0.0 : value_;
  return HashBytes(&v, sizeof(v));
}

void DoubleKey::Pickle(object::Pickler* pickler) const {
  pickler->PutDouble(value_);
}

Status DoubleKey::UnpickleFrom(object::Unpickler* unpickler) {
  return unpickler->GetDouble(&value_);
}

Buffer PickleKey(const GenericKey& key) {
  object::Pickler pickler;
  key.Pickle(&pickler);
  return pickler.Take();
}

}  // namespace tdb::collection
