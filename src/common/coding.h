#ifndef TDB_COMMON_CODING_H_
#define TDB_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace tdb {

/// Little-endian fixed-width and varint byte coding, plus a cursor-style
/// decoder. This is the wire format used by the chunk log, pickled objects,
/// index nodes, backups, and the baseline engine's WAL.

void PutFixed16(Buffer* dst, uint16_t v);
void PutFixed32(Buffer* dst, uint32_t v);
void PutFixed64(Buffer* dst, uint64_t v);
void PutVarint32(Buffer* dst, uint32_t v);
void PutVarint64(Buffer* dst, uint64_t v);
/// Bytes PutVarint64 writes for `v` (1..10).
size_t VarintLength(uint64_t v);
/// Varint length followed by the raw bytes.
void PutLengthPrefixed(Buffer* dst, Slice value);
/// Overwrites 4 bytes at `offset` (which must already exist) — used to
/// back-patch record lengths and checksums.
void PatchFixed32(Buffer* dst, size_t offset, uint32_t v);

uint16_t DecodeFixed16(const uint8_t* p);
uint32_t DecodeFixed32(const uint8_t* p);
uint64_t DecodeFixed64(const uint8_t* p);

/// Sequential decoder over a Slice. Get* methods return Corruption if the
/// input is exhausted or malformed, making truncated/garbled inputs safe to
/// parse (important: the chunk store parses attacker-controlled bytes).
class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input) {}

  Status GetFixed16(uint16_t* v);
  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetVarint32(uint32_t* v);
  Status GetVarint64(uint64_t* v);
  Status GetLengthPrefixed(Slice* value);
  Status GetBytes(size_t n, Slice* value);
  Status Skip(size_t n);

  size_t remaining() const { return input_.size(); }
  bool done() const { return input_.empty(); }

 private:
  Slice input_;
};

/// Lowercase hex of `data` — for logging and test diagnostics.
std::string ToHex(Slice data);

/// Non-cryptographic 32-bit checksum (FNV-1a). Used by the *baseline*
/// engine's WAL and for accidental-corruption detection when the secure
/// cipher suite is disabled; the trusted path always uses SHA hashes.
uint32_t Checksum32(Slice data);

}  // namespace tdb

#endif  // TDB_COMMON_CODING_H_
