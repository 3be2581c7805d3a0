// Adversarial-input robustness: every decoder that parses bytes from the
// untrusted store, and the JSON reader behind every artifact tdbstat reads
// back, must fail cleanly (Status, never a crash or hang) on arbitrary
// garbage. Randomized property tests stand in for a fuzzer.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "chunk/anchor.h"
#include "chunk/location_map.h"
#include "chunk/log_format.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "common/trace_export.h"
#include "crypto/cipher_suite.h"
#include "object/pickle.h"

namespace tdb {
namespace {

crypto::CipherSuite Suite() {
  return crypto::CipherSuite(crypto::SecurityConfig::Modern(),
                             Slice("fuzz-secret"), Slice("iv"));
}

constexpr chunk::LogVersion kVersions[] = {chunk::LogVersion::kV1,
                                           chunk::LogVersion::kV2};

TEST(CodecFuzzTest, ParseRecordNeverCrashesOnGarbage) {
  Random rng(1);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(200));
    for (chunk::LogVersion version : kVersions) {
      chunk::RecordView view;
      // Either parses (checksum collision is possible but harmless here)
      // or reports Corruption; must never crash.
      (void)chunk::ParseRecord(garbage, &view, version).ok();
    }
  }
}

TEST(CodecFuzzTest, DecodeManifestNeverCrashesOnGarbage) {
  Random rng(2);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(300));
    chunk::CommitManifest manifest;
    (void)chunk::DecodeManifest(garbage, 12, &manifest).ok();
    chunk::CommitManifestV1 v1;
    (void)chunk::DecodeManifestV1(garbage, 32, 12, &v1).ok();
  }
}

TEST(CodecFuzzTest, DecodeMapNodeNeverCrashesOnGarbage) {
  Random rng(3);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(300));
    (void)chunk::LocationMap::DecodeNode(garbage, 64, 12).ok();
  }
}

TEST(CodecFuzzTest, DecodeAnchorNeverCrashesOnGarbage) {
  Random rng(4);
  crypto::CipherSuite suite = Suite();
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(300));
    (void)chunk::AnchorManager::Decode(garbage, suite, 12).ok();
  }
}

void ExpectSameManifest(const chunk::CommitManifest& a,
                        const chunk::CommitManifest& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.next_chunk_id, b.next_chunk_id);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.deallocs, b.deallocs);
  EXPECT_EQ(a.has_root, b.has_root);
  if (a.has_root && b.has_root) {
    EXPECT_TRUE(a.root_loc == b.root_loc);
    EXPECT_EQ(a.root_hash, b.root_hash);
  }
}

bool SameManifest(const chunk::CommitManifest& a,
                  const chunk::CommitManifest& b) {
  return a.seq == b.seq && a.flags == b.flags && a.counter == b.counter &&
         a.next_chunk_id == b.next_chunk_id && a.records == b.records &&
         a.deallocs == b.deallocs && a.has_root == b.has_root &&
         (!a.has_root || (a.root_loc == b.root_loc &&
                          a.root_hash == b.root_hash));
}

TEST(CodecFuzzTest, ManifestRoundtripWithAllFields) {
  Random rng(5);
  for (int trial = 0; trial < 200; trial++) {
    chunk::CommitManifest manifest;
    manifest.seq = rng.Next();
    manifest.flags = static_cast<uint8_t>(rng.Uniform(8));
    manifest.next_chunk_id = rng.Next();
    manifest.counter = rng.Next();
    // Records: fresh ids near and far, repeats and runs of dead records.
    int n_records = static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < n_records; i++) {
      switch (rng.Uniform(4)) {
        case 0:
          manifest.records.push_back(chunk::kInvalidChunkId);
          break;
        case 1:
          if (!manifest.records.empty() && manifest.records.back() != 0) {
            manifest.records.push_back(manifest.records.back());
            break;
          }
          [[fallthrough]];
        case 2:
          manifest.records.push_back(1 + rng.Uniform(1000));
          break;
        default:
          manifest.records.push_back(rng.Next() | 1);
      }
    }
    int n_deallocs = static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < n_deallocs; i++) manifest.deallocs.push_back(rng.Next());
    manifest.has_root = rng.Bernoulli(0.5);
    if (manifest.has_root) {
      manifest.root_loc = {1, 2, 3};
      Buffer h;
      rng.Fill(&h, 12);
      manifest.root_hash = crypto::Digest(h.data(), 12);
    }

    Buffer encoded = chunk::EncodeManifest(manifest);
    chunk::CommitManifest decoded;
    ASSERT_TRUE(chunk::DecodeManifest(encoded, 12, &decoded).ok());
    ExpectSameManifest(decoded, manifest);
  }
}

// A manifest with every kind of entry: ascending and descending ids, a
// repeated id, a run of dead records, deallocations and a root.
chunk::CommitManifest SampleManifest() {
  chunk::CommitManifest manifest;
  manifest.seq = 7;
  manifest.flags = chunk::kCommitDurable | chunk::kCommitCheckpoint;
  manifest.next_chunk_id = 300;
  manifest.counter = 3;
  manifest.records = {9, 200, 200, 0, 0, 0, 12, 0, 250};
  manifest.deallocs = {40, 17};
  manifest.has_root = true;
  manifest.root_loc = {1, 2, 3};
  Buffer h(12, 0xCD);
  manifest.root_hash = crypto::Digest(h.data(), 12);
  return manifest;
}

TEST(CodecFuzzTest, TruncatedManifestAlwaysRejected) {
  Buffer encoded = chunk::EncodeManifest(SampleManifest());
  for (size_t cut = 0; cut < encoded.size(); cut++) {
    Buffer truncated(encoded.begin(), encoded.begin() + cut);
    chunk::CommitManifest out;
    EXPECT_FALSE(chunk::DecodeManifest(truncated, 12, &out).ok())
        << "cut at " << cut;
  }
}

// A v1 manifest, encoded by hand in the field order the last v1 writer
// used: only the v1 decoder is left in the store.
Buffer EncodeManifestV1(const chunk::CommitManifestV1& manifest) {
  Buffer out;
  PutVarint64(&out, manifest.seq);
  out.push_back(manifest.flags);
  PutVarint64(&out, manifest.next_chunk_id);
  PutVarint64(&out, manifest.counter);
  chunk::PutDigest(&out, manifest.prev_mac);
  PutVarint32(&out, static_cast<uint32_t>(manifest.writes.size()));
  for (const chunk::ManifestWrite& w : manifest.writes) {
    PutVarint64(&out, w.cid);
    chunk::PutLocation(&out, w.loc);
    chunk::PutDigest(&out, w.hash);
    out.push_back(w.flags);
  }
  PutVarint32(&out, static_cast<uint32_t>(manifest.deallocs.size()));
  for (chunk::ChunkId cid : manifest.deallocs) PutVarint64(&out, cid);
  out.push_back(manifest.has_root ? 1 : 0);
  if (manifest.has_root) {
    chunk::PutLocation(&out, manifest.root_loc);
    chunk::PutDigest(&out, manifest.root_hash);
  }
  return out;
}

crypto::Digest RandomDigest(Random* rng, size_t size) {
  Buffer bytes;
  rng->Fill(&bytes, size);
  return crypto::Digest(bytes.data(), size);
}

chunk::CommitManifestV1 RandomManifestV1(Random* rng) {
  chunk::CommitManifestV1 manifest;
  manifest.seq = rng->Next();
  manifest.flags = static_cast<uint8_t>(rng->Uniform(8));
  manifest.next_chunk_id = rng->Next();
  manifest.counter = rng->Next();
  manifest.prev_mac = RandomDigest(rng, 32);
  int n_writes = static_cast<int>(rng->Uniform(10));
  for (int i = 0; i < n_writes; i++) {
    chunk::ManifestWrite w;
    w.cid = rng->Next();
    w.loc = {static_cast<uint32_t>(rng->Next()),
             static_cast<uint32_t>(rng->Next()),
             static_cast<uint32_t>(rng->Next())};
    w.hash = RandomDigest(rng, 12);
    w.flags = static_cast<uint8_t>(rng->Uniform(2)) * chunk::kEntryCompressed;
    manifest.writes.push_back(w);
  }
  int n_deallocs = static_cast<int>(rng->Uniform(5));
  for (int i = 0; i < n_deallocs; i++) manifest.deallocs.push_back(rng->Next());
  manifest.has_root = rng->Uniform(2) == 1;
  if (manifest.has_root) {
    manifest.root_loc = {static_cast<uint32_t>(rng->Next()),
                         static_cast<uint32_t>(rng->Next()),
                         static_cast<uint32_t>(rng->Next())};
    manifest.root_hash = RandomDigest(rng, 12);
  }
  return manifest;
}

void ExpectSameManifestV1(const chunk::CommitManifestV1& a,
                          const chunk::CommitManifestV1& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.counter, b.counter);
  EXPECT_EQ(a.next_chunk_id, b.next_chunk_id);
  EXPECT_EQ(a.prev_mac, b.prev_mac);
  ASSERT_EQ(a.writes.size(), b.writes.size());
  for (size_t i = 0; i < a.writes.size(); i++) {
    EXPECT_EQ(a.writes[i].cid, b.writes[i].cid);
    EXPECT_TRUE(a.writes[i].loc == b.writes[i].loc);
    EXPECT_EQ(a.writes[i].hash, b.writes[i].hash);
    EXPECT_EQ(a.writes[i].flags, b.writes[i].flags);
  }
  EXPECT_EQ(a.deallocs, b.deallocs);
  EXPECT_EQ(a.has_root, b.has_root);
  if (a.has_root && b.has_root) {
    EXPECT_TRUE(a.root_loc == b.root_loc);
    EXPECT_EQ(a.root_hash, b.root_hash);
  }
}

TEST(CodecFuzzTest, ManifestV1DecodesWithAllFields) {
  Random rng(5);
  for (int trial = 0; trial < 200; trial++) {
    const chunk::CommitManifestV1 manifest = RandomManifestV1(&rng);
    chunk::CommitManifestV1 decoded;
    ASSERT_TRUE(
        chunk::DecodeManifestV1(EncodeManifestV1(manifest), 32, 12, &decoded)
            .ok());
    ExpectSameManifestV1(decoded, manifest);
  }
}

TEST(CodecFuzzTest, TruncatedManifestV1AlwaysRejected) {
  Random rng(8);
  for (int trial = 0; trial < 20; trial++) {
    chunk::CommitManifestV1 manifest = RandomManifestV1(&rng);
    if (trial == 0) {  // One with every field present.
      while (manifest.writes.empty() || manifest.deallocs.empty()) {
        manifest = RandomManifestV1(&rng);
      }
      manifest.has_root = true;
      manifest.root_loc = {1, 2, 3};
      manifest.root_hash = RandomDigest(&rng, 12);
    }
    Buffer encoded = EncodeManifestV1(manifest);
    chunk::CommitManifestV1 full;
    ASSERT_TRUE(chunk::DecodeManifestV1(encoded, 32, 12, &full).ok());
    ExpectSameManifestV1(full, manifest);
    for (size_t cut = 0; cut < encoded.size(); cut++) {
      Buffer truncated(encoded.begin(), encoded.begin() + cut);
      chunk::CommitManifestV1 out;
      EXPECT_FALSE(chunk::DecodeManifestV1(truncated, 32, 12, &out).ok())
          << "trial " << trial << " cut at " << cut;
    }
  }
}

TEST(CodecCorpusTest, ManifestBitFlipsNeverSilentlyAccepted) {
  // The manifest is sealed and MACed in the log; here the bare encoding
  // must either fail to decode or decode to a different manifest, so no
  // flip can pass for the original.
  const chunk::CommitManifest manifest = SampleManifest();
  Buffer encoded = chunk::EncodeManifest(manifest);
  for (size_t i = 0; i < encoded.size(); i++) {
    for (int bit = 0; bit < 8; bit++) {
      Buffer flipped = encoded;
      flipped[i] ^= static_cast<uint8_t>(1 << bit);
      chunk::CommitManifest out;
      if (!chunk::DecodeManifest(flipped, 12, &out).ok()) continue;
      EXPECT_FALSE(SameManifest(out, manifest))
          << "byte " << i << " bit " << bit << " silently accepted";
    }
  }
}

TEST(CodecFuzzTest, UnpicklerNeverCrashesOnGarbage) {
  Random rng(6);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(100));
    object::Unpickler u{Slice(garbage)};
    // Pull a random sequence of typed reads.
    for (int op = 0; op < 8; op++) {
      switch (rng.Uniform(6)) {
        case 0: { bool v; (void)u.GetBool(&v).ok(); break; }
        case 1: { int32_t v; (void)u.GetInt32(&v).ok(); break; }
        case 2: { int64_t v; (void)u.GetInt64(&v).ok(); break; }
        case 3: { double v; (void)u.GetDouble(&v).ok(); break; }
        case 4: { std::string v; (void)u.GetString(&v).ok(); break; }
        case 5: { Buffer v; (void)u.GetBytes(&v).ok(); break; }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic corpora: instead of random garbage, take a well-formed
// encoding and enumerate EVERY truncation point and EVERY single-bit-flip
// site. Decoders must fail cleanly or surface the change — a flip that
// decodes successfully back to the original artifact would be a silently
// accepted modification.

// A data record of `version` with a `size`-byte payload. v1 frames are
// built by hand here: only the v1 decoder is left in the store.
Buffer SampleRecord(chunk::LogVersion version, size_t size,
                    Buffer* payload_out) {
  Random rng(40);
  Buffer payload;
  rng.Fill(&payload, size);
  Buffer record;
  if (version == chunk::LogVersion::kV2) {
    chunk::AppendRecord(&record, chunk::RecordType::kData,
                        chunk::kEntryPadded, payload);
  } else {
    record.push_back(static_cast<uint8_t>(chunk::RecordType::kData));
    PutFixed32(&record, static_cast<uint32_t>(payload.size()));
    PutFixed32(&record, Checksum32(payload));
    record.insert(record.end(), payload.begin(), payload.end());
  }
  *payload_out = payload;
  return record;
}

// Payload sizes around the v2 length varint's 1- and 2-byte forms.
constexpr size_t kRecordSizes[] = {75, 127, 128, 300};

TEST(CodecCorpusTest, RecordTruncationsAlwaysRejected) {
  for (chunk::LogVersion version : kVersions) {
    for (size_t size : kRecordSizes) {
      Buffer payload;
      Buffer record = SampleRecord(version, size, &payload);
      chunk::RecordView view;
      ASSERT_TRUE(chunk::ParseRecord(record, &view, version).ok());
      ASSERT_EQ(view.record_size, record.size());
      ASSERT_EQ(view.record_size - view.payload.size(),
                chunk::RecordHeaderSize(version, size));

      for (size_t cut = 0; cut < record.size(); cut++) {
        Buffer truncated(record.begin(), record.begin() + cut);
        chunk::RecordView out;
        EXPECT_FALSE(chunk::ParseRecord(truncated, &out, version).ok())
            << "v" << int(version) << " size " << size << " cut " << cut;
      }
    }
  }
}

TEST(CodecCorpusTest, RecordBitFlipsNeverSilentlyAccepted) {
  for (chunk::LogVersion version : kVersions) {
    for (size_t size : kRecordSizes) {
      Buffer payload;
      Buffer record = SampleRecord(version, size, &payload);
      const uint8_t flags =
          version == chunk::LogVersion::kV2 ? chunk::kEntryPadded : 0;
      for (size_t i = 0; i < record.size(); i++) {
        for (int bit = 0; bit < 8; bit++) {
          Buffer flipped = record;
          flipped[i] ^= static_cast<uint8_t>(1 << bit);
          chunk::RecordView view;
          Status parsed = chunk::ParseRecord(flipped, &view, version);
          if (!parsed.ok()) continue;  // Rejected: fine.
          // Parsed despite the flip (v1 leaves its type byte out of the
          // checksum): the change must be visible to the caller.
          bool differs = view.type != chunk::RecordType::kData ||
                         view.flags != flags ||
                         Slice(view.payload) != Slice(payload) ||
                         view.record_size != record.size();
          EXPECT_TRUE(differs) << "v" << int(version) << " size " << size
                               << " byte " << i << " bit " << bit
                               << " silently accepted";
          // v2 checksums every byte of the frame.
          EXPECT_EQ(version, chunk::LogVersion::kV1)
              << "size " << size << " byte " << i << " bit " << bit;
        }
      }
    }
  }
}

TEST(CodecCorpusTest, SegmentHeaderTruncationAndFlips) {
  Buffer header = chunk::EncodeSegmentHeader(3);
  ASSERT_EQ(header.size(), chunk::kSegmentHeaderSize);
  uint32_t id = 0;
  ASSERT_TRUE(chunk::DecodeSegmentHeader(header, &id).ok());
  ASSERT_EQ(id, 3u);

  for (size_t cut = 0; cut < header.size(); cut++) {
    Buffer truncated(header.begin(), header.begin() + cut);
    EXPECT_FALSE(chunk::DecodeSegmentHeader(truncated, &id).ok())
        << "cut " << cut;
  }
  for (size_t i = 0; i < header.size(); i++) {
    for (uint8_t mask : {0x01, 0x80}) {
      Buffer flipped = header;
      flipped[i] ^= mask;
      uint32_t out = 0;
      Status decoded = chunk::DecodeSegmentHeader(flipped, &out);
      // A magic flip must fail; a segment-id flip must decode a DIFFERENT
      // id (the caller cross-checks it against the file name).
      if (decoded.ok()) {
        EXPECT_NE(out, 3u) << "byte " << i << " mask " << int(mask);
      }
    }
  }
}

chunk::AnchorState SampleAnchor() {
  chunk::AnchorState state;
  state.counter = 42;
  state.seq = 17;
  state.next_chunk_id = 1000;
  state.has_root = true;
  state.root_loc = {5, 64, 900};
  Buffer h(12, 0x5A);
  state.root_hash = crypto::Digest(h.data(), 12);
  Buffer m(32, 0xC3);
  state.ckpt_mac = crypto::Digest(m.data(), 32);
  state.scan_segment = 6;
  state.scan_offset = 512;
  state.map_fanout = 8;
  state.seal_limit = 70000;
  return state;
}

TEST(CodecCorpusTest, AnchorFanoutOutOfRangeRejected) {
  // Without security the anchor carries only a CRC, so a garbled fanout
  // reaches the decoder intact; it must be a Status, not a map built with
  // it (a fanout of 1 would abort, a huge one allocate a huge root).
  crypto::CipherSuite insecure(crypto::SecurityConfig::Disabled(),
                               Slice("fuzz-secret"), Slice("iv"));
  auto insecure_anchor = [](uint32_t fanout) {
    chunk::AnchorState state = SampleAnchor();
    state.root_hash = crypto::Digest();
    state.ckpt_mac = crypto::Digest();
    state.map_fanout = fanout;
    return state;
  };
  for (uint32_t fanout : {0u, 1u, chunk::LocationMap::kMaxFanout + 1,
                          UINT32_MAX}) {
    chunk::AnchorState state = insecure_anchor(fanout);
    Result<chunk::AnchorState> decoded = chunk::AnchorManager::Decode(
        chunk::AnchorManager::Encode(state, insecure), insecure, 0);
    ASSERT_FALSE(decoded.ok()) << "fanout " << fanout;
    EXPECT_TRUE(decoded.status().IsCorruption()) << "fanout " << fanout;
  }
  for (uint32_t fanout : {chunk::LocationMap::kMinFanout, 64u,
                          chunk::LocationMap::kMaxFanout}) {
    chunk::AnchorState state = insecure_anchor(fanout);
    Result<chunk::AnchorState> decoded = chunk::AnchorManager::Decode(
        chunk::AnchorManager::Encode(state, insecure), insecure, 0);
    ASSERT_TRUE(decoded.ok()) << "fanout " << fanout;
    EXPECT_EQ(decoded->map_fanout, fanout);
  }
}

TEST(CodecCorpusTest, AnchorTruncationsAlwaysRejected) {
  crypto::CipherSuite suite = Suite();
  Buffer encoded = chunk::AnchorManager::Encode(SampleAnchor(), suite);
  ASSERT_TRUE(chunk::AnchorManager::Decode(encoded, suite, 12).ok());
  for (size_t cut = 0; cut < encoded.size(); cut++) {
    Buffer truncated(encoded.begin(), encoded.begin() + cut);
    EXPECT_FALSE(chunk::AnchorManager::Decode(truncated, suite, 12).ok())
        << "cut " << cut;
  }
}

TEST(CodecCorpusTest, AnchorBitFlipsAlwaysRejected) {
  // The anchor is the trust root: every byte is under the MAC, so every
  // single-bit flip must be rejected outright.
  crypto::CipherSuite suite = Suite();
  chunk::AnchorState state = SampleAnchor();
  Buffer encoded = chunk::AnchorManager::Encode(state, suite);
  for (size_t i = 0; i < encoded.size(); i++) {
    for (uint8_t mask : {0x01, 0x80}) {
      Buffer flipped = encoded;
      flipped[i] ^= mask;
      Result<chunk::AnchorState> decoded =
          chunk::AnchorManager::Decode(flipped, suite, 12);
      EXPECT_FALSE(decoded.ok())
          << "byte " << i << " mask " << int(mask) << " accepted";
    }
  }
}

TEST(CodecFuzzTest, SealedChunkBitFlipsAlwaysCaughtByOpenOrHash) {
  // Flip every byte of a sealed chunk, padded (v1 and short v2 records)
  // and stolen (other v2 records): either opening fails, or the plaintext
  // differs (which the Merkle hash above would catch — emulated here by
  // direct comparison).
  crypto::CipherSuite suite = Suite();
  Random rng(7);
  const uint8_t iv[16] = {1, 2, 3};
  for (size_t size : {size_t{5}, size_t{16}, size_t{17}, size_t{100}}) {
    Buffer plain;
    rng.Fill(&plain, size);
    const bool padded = suite.PadsWhenStealing(size);
    for (bool stealing : {false, true}) {
      Buffer sealed = stealing ? suite.SealStealing(plain, Slice(iv, 16))
                               : suite.Seal(plain);
      const bool was_padded = !stealing || padded;
      for (size_t i = 0; i < sealed.size(); i++) {
        Buffer tampered = sealed;
        tampered[i] ^= 0x01;
        auto opened = suite.Open(tampered, was_padded);
        if (opened.ok()) {
          EXPECT_NE(*opened, plain) << "size " << size << " byte " << i;
        }
      }
    }
  }
}

TEST(CodecFuzzTest, SealNumberPayloadFlipsAndTruncationsCaught) {
  // A v3 payload is varint(s) ‖ ciphertext under IV E_k'(s). With seal
  // numbers whose varints take 1, 3 and 9 bytes, padded (up to one block)
  // and stolen (above it): every single-bit flip, of the seal number or
  // the ciphertext, and every proper prefix either fails to open or opens
  // to a different plaintext (which the record hash above would catch).
  crypto::CipherSuite suite = Suite();
  Random rng(11);
  const std::pair<uint64_t, size_t> kSeals[] = {
      {5, 1}, {(uint64_t{1} << 14) + 3, 3}, {(uint64_t{1} << 56) + 9, 9}};
  for (const auto& [seal, varint_bytes] : kSeals) {
    ASSERT_EQ(suite.SealNumberSize(seal), varint_bytes);
    for (size_t size : {size_t{0}, size_t{7}, size_t{16}, size_t{17},
                        size_t{100}}) {
      SCOPED_TRACE("seal " + std::to_string(seal) + " size " +
                   std::to_string(size));
      Buffer plain;
      rng.Fill(&plain, size);
      const bool padded = suite.PadsWhenStealing(size);
      const Buffer sealed = suite.SealNumbered(plain, seal);
      if (!padded) {
        EXPECT_EQ(sealed.size(), varint_bytes + size);
      }
      auto back = suite.OpenNumbered(sealed, padded);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(*back, plain);
      for (size_t i = 0; i < sealed.size(); i++) {
        for (uint8_t mask : {0x01, 0x80}) {
          Buffer flipped = sealed;
          flipped[i] ^= mask;
          auto opened = suite.OpenNumbered(flipped, padded);
          if (opened.ok()) {
            EXPECT_NE(*opened, plain) << "byte " << i << " mask " << int(mask);
          }
        }
      }
      for (size_t cut = 0; cut < sealed.size(); cut++) {
        auto opened = suite.OpenNumbered(Slice(sealed.data(), cut), padded);
        if (opened.ok()) {
          EXPECT_NE(*opened, plain) << "cut " << cut;
        }
      }
    }
  }
  // Another IV key (another iv_seed) never opens it to the plaintext.
  crypto::CipherSuite other(crypto::SecurityConfig::Modern(),
                            Slice("fuzz-secret"), Slice("other-iv"));
  EXPECT_NE(other.seal_key_id(), suite.seal_key_id());
  Buffer plain;
  rng.Fill(&plain, 40);
  auto opened = other.OpenNumbered(suite.SealNumbered(plain, 77), false);
  ASSERT_TRUE(opened.ok());
  EXPECT_NE(*opened, plain);
}

// The three JSON artifacts TDB emits, each with the reader that reads it
// back: a metrics snapshot with every instrument kind and audit events, a
// Chrome trace of two span trees, and a flight bundle embedding both.
struct JsonCorpus {
  const char* what;
  std::string doc;
  std::function<Status(const std::string&)> parse;
};

std::vector<JsonCorpus> JsonCorpora() {
  common::MetricsRegistry registry;
  registry.GetCounter("chunk.reads")->Add(12345);
  registry.GetGauge("chunk.cache.bytes")->Set(-7);
  common::Histogram* latency = registry.GetHistogram("chunk.commit_us");
  for (int64_t v : {int64_t{0}, int64_t{3}, int64_t{900}, int64_t{1} << 40}) {
    latency->Record(v);
  }
  registry.audit().Record("hash_mismatch", common::kRegionPayload,
                          "seg 3 \"off\" 128", "line\nbreak\x01");
  registry.audit().Record("replay", common::kRegionCounter, "counter",
                          "stale");
  const common::MetricsSnapshot snap = registry.Snapshot();

  std::vector<common::TraceEvent> spans;
  for (uint64_t trace = 1; trace <= 2; trace++) {
    for (uint64_t span = 1; span <= 3; span++) {
      common::TraceEvent ev;
      ev.name = common::InternTraceName("codec.span" + std::to_string(span));
      ev.trace_id = trace << 40;
      ev.span_id = ev.trace_id | span;
      ev.parent_span_id = span == 1 ? 0 : ev.trace_id | (span - 1);
      ev.start_us = 1000 * trace + span;
      ev.duration_us = span - 1;
      ev.thread_id = static_cast<uint32_t>(trace);
      spans.push_back(ev);
    }
  }
  common::FlightBundle bundle;
  bundle.reason = "audit:hash_mismatch";
  bundle.detail = "seg 3: \"boom\"\t";
  bundle.at_us = 123456;
  bundle.seq = 2;
  bundle.spans = spans;
  bundle.metrics_delta = snap;

  auto parse_trace = [](const std::string& text) {
    std::vector<common::TraceEvent> events;
    return common::TraceEventsFromChromeJson(text, &events);
  };
  return {
      {"metrics snapshot", snap.ToJson(),
       [](const std::string& text) {
         return common::MetricsSnapshot::FromJson(text).status();
       }},
      {"chrome trace", common::TraceEventsToChromeJson(spans), parse_trace},
      {"flight bundle", bundle.ToJson(), parse_trace},
  };
}

TEST(CodecCorpusTest, JsonTruncationsAlwaysRejected) {
  for (const JsonCorpus& c : JsonCorpora()) {
    Status whole = c.parse(c.doc);
    ASSERT_TRUE(whole.ok()) << c.what << ": " << whole.ToString();
    // Every cut before the closing brace; trailing whitespace is not part
    // of the document.
    const size_t body = c.doc.find_last_not_of(" \n") + 1;
    for (size_t cut = 0; cut < body; cut++) {
      EXPECT_FALSE(c.parse(c.doc.substr(0, cut)).ok())
          << c.what << " cut " << cut;
    }
  }
}

TEST(CodecFuzzTest, JsonBitFlipsParseOrReturnInvalidArgument) {
  for (const JsonCorpus& c : JsonCorpora()) {
    for (size_t i = 0; i < c.doc.size(); i++) {
      for (int bit = 0; bit < 8; bit++) {
        std::string flipped = c.doc;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        Status s = c.parse(flipped);
        EXPECT_TRUE(s.ok() || s.code() == Status::Code::kInvalidArgument)
            << c.what << " byte " << i << " bit " << bit << ": "
            << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace tdb
