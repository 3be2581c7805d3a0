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

TEST(CodecFuzzTest, ParseRecordNeverCrashesOnGarbage) {
  Random rng(1);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(200));
    chunk::RecordView view;
    // Either parses (checksum collision is possible but harmless here) or
    // reports Corruption; must never crash.
    (void)chunk::ParseRecord(garbage, &view).ok();
  }
}

TEST(CodecFuzzTest, DecodeManifestNeverCrashesOnGarbage) {
  Random rng(2);
  for (int trial = 0; trial < 2000; trial++) {
    Buffer garbage;
    rng.Fill(&garbage, rng.Uniform(300));
    chunk::CommitManifest manifest;
    (void)chunk::DecodeManifest(garbage, 32, 12, &manifest).ok();
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

TEST(CodecFuzzTest, ManifestRoundtripWithAllFields) {
  Random rng(5);
  for (int trial = 0; trial < 200; trial++) {
    chunk::CommitManifest manifest;
    manifest.seq = rng.Next();
    manifest.flags = static_cast<uint8_t>(rng.Uniform(8));
    manifest.next_chunk_id = rng.Next();
    manifest.counter = rng.Next();
    Buffer mac_bytes;
    rng.Fill(&mac_bytes, 32);
    manifest.prev_mac = crypto::Digest(mac_bytes.data(), 32);
    int n_writes = static_cast<int>(rng.Uniform(10));
    for (int i = 0; i < n_writes; i++) {
      chunk::ManifestWrite w;
      w.cid = rng.Next();
      w.loc = {static_cast<uint32_t>(rng.Next()),
               static_cast<uint32_t>(rng.Next()),
               static_cast<uint32_t>(rng.Next())};
      Buffer h;
      rng.Fill(&h, 12);
      w.hash = crypto::Digest(h.data(), 12);
      manifest.writes.push_back(w);
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
    ASSERT_TRUE(chunk::DecodeManifest(encoded, 32, 12, &decoded).ok());
    EXPECT_EQ(decoded.seq, manifest.seq);
    EXPECT_EQ(decoded.flags, manifest.flags);
    EXPECT_EQ(decoded.counter, manifest.counter);
    EXPECT_EQ(decoded.next_chunk_id, manifest.next_chunk_id);
    EXPECT_EQ(decoded.prev_mac, manifest.prev_mac);
    ASSERT_EQ(decoded.writes.size(), manifest.writes.size());
    for (size_t i = 0; i < manifest.writes.size(); i++) {
      EXPECT_EQ(decoded.writes[i].cid, manifest.writes[i].cid);
      EXPECT_TRUE(decoded.writes[i].loc == manifest.writes[i].loc);
      EXPECT_EQ(decoded.writes[i].hash, manifest.writes[i].hash);
    }
    EXPECT_EQ(decoded.deallocs, manifest.deallocs);
    EXPECT_EQ(decoded.has_root, manifest.has_root);
  }
}

TEST(CodecFuzzTest, TruncatedManifestAlwaysRejected) {
  chunk::CommitManifest manifest;
  manifest.seq = 7;
  manifest.counter = 3;
  Buffer mac(32, 0xAB);
  manifest.prev_mac = crypto::Digest(mac.data(), 32);
  chunk::ManifestWrite w;
  w.cid = 9;
  w.loc = {1, 2, 3};
  Buffer h(12, 0xCD);
  w.hash = crypto::Digest(h.data(), 12);
  manifest.writes.push_back(w);

  Buffer encoded = chunk::EncodeManifest(manifest);
  for (size_t cut = 0; cut < encoded.size(); cut++) {
    Buffer truncated(encoded.begin(), encoded.begin() + cut);
    chunk::CommitManifest out;
    EXPECT_FALSE(chunk::DecodeManifest(truncated, 32, 12, &out).ok())
        << "cut at " << cut;
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

Buffer SampleRecord(Buffer* payload_out) {
  Random rng(40);
  Buffer payload;
  rng.Fill(&payload, 75);
  Buffer record;
  chunk::AppendRecord(&record, chunk::RecordType::kData, payload);
  *payload_out = payload;
  return record;
}

TEST(CodecCorpusTest, RecordTruncationsAlwaysRejected) {
  Buffer payload;
  Buffer record = SampleRecord(&payload);
  chunk::RecordView view;
  ASSERT_TRUE(chunk::ParseRecord(record, &view).ok());
  ASSERT_EQ(view.record_size, record.size());

  for (size_t cut = 0; cut < record.size(); cut++) {
    Buffer truncated(record.begin(), record.begin() + cut);
    chunk::RecordView out;
    EXPECT_FALSE(chunk::ParseRecord(truncated, &out).ok()) << "cut " << cut;
  }
}

TEST(CodecCorpusTest, RecordBitFlipsNeverSilentlyAccepted) {
  Buffer payload;
  Buffer record = SampleRecord(&payload);
  for (size_t i = 0; i < record.size(); i++) {
    for (uint8_t mask : {0x01, 0x80}) {
      Buffer flipped = record;
      flipped[i] ^= mask;
      chunk::RecordView view;
      Status parsed = chunk::ParseRecord(flipped, &view);
      if (!parsed.ok()) continue;  // Rejected: fine.
      // Parsed despite the flip (e.g. the unchecksummed type byte): the
      // change must be visible to the caller, never masked.
      bool differs = view.type != chunk::RecordType::kData ||
                     Slice(view.payload) != Slice(payload) ||
                     view.record_size != record.size();
      EXPECT_TRUE(differs) << "byte " << i << " mask " << int(mask)
                           << " silently accepted";
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
  return state;
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
  // Flip every byte of a sealed chunk: either CBC unpadding fails, or the
  // plaintext differs (which the Merkle hash above would catch — emulated
  // here by direct comparison).
  crypto::CipherSuite suite = Suite();
  Buffer plain;
  Random rng(7);
  rng.Fill(&plain, 100);
  Buffer sealed = suite.Seal(plain);
  for (size_t i = 0; i < sealed.size(); i++) {
    Buffer tampered = sealed;
    tampered[i] ^= 0x01;
    auto opened = suite.Open(tampered);
    if (opened.ok()) {
      EXPECT_NE(*opened, plain) << "byte " << i;
    }
  }
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
