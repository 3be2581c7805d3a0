#include "common/coding.h"

#include "common/check.h"

namespace tdb {

void PutFixed16(Buffer* dst, uint16_t v) {
  dst->push_back(static_cast<uint8_t>(v));
  dst->push_back(static_cast<uint8_t>(v >> 8));
}

void PutFixed32(Buffer* dst, uint32_t v) {
  for (int i = 0; i < 4; i++) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutFixed64(Buffer* dst, uint64_t v) {
  for (int i = 0; i < 8; i++) dst->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutVarint32(Buffer* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

void PutVarint64(Buffer* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

void PutLengthPrefixed(Buffer* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->insert(dst->end(), value.data(), value.data() + value.size());
}

void PatchFixed32(Buffer* dst, size_t offset, uint32_t v) {
  TDB_CHECK(offset + 4 <= dst->size());
  for (int i = 0; i < 4; i++)
    (*dst)[offset + i] = static_cast<uint8_t>(v >> (8 * i));
}

uint16_t DecodeFixed16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | (static_cast<uint16_t>(p[1]) << 8);
}

uint32_t DecodeFixed32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t DecodeFixed64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

Status Decoder::GetFixed16(uint16_t* v) {
  if (input_.size() < 2) return Status::Corruption("truncated fixed16");
  *v = DecodeFixed16(input_.data());
  input_.RemovePrefix(2);
  return Status::OK();
}

Status Decoder::GetFixed32(uint32_t* v) {
  if (input_.size() < 4) return Status::Corruption("truncated fixed32");
  *v = DecodeFixed32(input_.data());
  input_.RemovePrefix(4);
  return Status::OK();
}

Status Decoder::GetFixed64(uint64_t* v) {
  if (input_.size() < 8) return Status::Corruption("truncated fixed64");
  *v = DecodeFixed64(input_.data());
  input_.RemovePrefix(8);
  return Status::OK();
}

Status Decoder::GetVarint32(uint32_t* v) {
  uint64_t v64;
  TDB_RETURN_IF_ERROR(GetVarint64(&v64));
  if (v64 > UINT32_MAX) return Status::Corruption("varint32 overflow");
  *v = static_cast<uint32_t>(v64);
  return Status::OK();
}

Status Decoder::GetVarint64(uint64_t* v) {
  uint64_t result = 0;
  for (unsigned shift = 0; shift <= 63 && !input_.empty(); shift += 7) {
    uint8_t byte = input_[0];
    input_.RemovePrefix(1);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("malformed varint64");
}

Status Decoder::GetLengthPrefixed(Slice* value) {
  uint64_t len;
  TDB_RETURN_IF_ERROR(GetVarint64(&len));
  return GetBytes(static_cast<size_t>(len), value);
}

Status Decoder::GetBytes(size_t n, Slice* value) {
  if (input_.size() < n) return Status::Corruption("truncated byte range");
  *value = Slice(input_.data(), n);
  input_.RemovePrefix(n);
  return Status::OK();
}

Status Decoder::Skip(size_t n) {
  if (input_.size() < n) return Status::Corruption("skip past end");
  input_.RemovePrefix(n);
  return Status::OK();
}

std::string ToHex(Slice data) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (size_t i = 0; i < data.size(); i++) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

uint32_t Checksum32(Slice data) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < data.size(); i++) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

}  // namespace tdb
