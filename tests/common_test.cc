#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/lz.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace tdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("chunk 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: chunk 42");

  EXPECT_TRUE(Status::TamperDetected("x").IsTamperDetected());
  EXPECT_TRUE(Status::ReplayDetected("x").IsReplayDetected());
  EXPECT_TRUE(Status::LockTimeout("x").IsLockTimeout());
  EXPECT_TRUE(Status::UniqueViolation("x").IsUniqueViolation());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    TDB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), Status::Code::kIOError);
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok_result(7);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 7);

  Result<int> err_result(Status::NotFound("nope"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturn) {
  auto make = [](bool fail) -> Result<std::string> {
    if (fail) return Status::IOError("bad");
    return std::string("hello");
  };
  auto use = [&](bool fail) -> Status {
    TDB_ASSIGN_OR_RETURN(std::string v, make(fail));
    EXPECT_EQ(v, "hello");
    return Status::OK();
  };
  EXPECT_TRUE(use(false).ok());
  EXPECT_EQ(use(true).code(), Status::Code::kIOError);
}

TEST(SliceTest, BasicsAndEquality) {
  Buffer b = {1, 2, 3};
  Slice s(b);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1], 2);
  EXPECT_EQ(s, Slice(b));
  s.RemovePrefix(1);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 2);
  EXPECT_NE(s, Slice(b));

  Slice from_str("abc");
  EXPECT_EQ(from_str.size(), 3u);
  EXPECT_EQ(from_str.ToString(), "abc");
}

// CRC-32C known answers: the check value of the Castagnoli CRC and the
// iSCSI test patterns (RFC 3720, B.4), on the table and on SSE4.2.
TEST(Crc32cTest, KnownAnswersOnBothPaths) {
  Buffer zeros(32, 0), ones(32, 0xFF), up(32), down(32);
  for (int i = 0; i < 32; i++) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  for (bool hw : {false, true}) {
    SetCrc32cAccelForTesting(hw);
    EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u) << hw;
    EXPECT_EQ(Crc32c(Slice()), 0u) << hw;
    EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu) << hw;
    EXPECT_EQ(Crc32c(ones), 0x62A8AB43u) << hw;
    EXPECT_EQ(Crc32c(up), 0x46DD794Eu) << hw;
    EXPECT_EQ(Crc32c(down), 0x113FDB5Cu) << hw;
  }
  SetCrc32cAccelForTesting(true);
}

TEST(Crc32cTest, ExtendAndPathsAgree) {
  Random rng(77);
  Buffer data;
  rng.Fill(&data, 300);
  for (size_t start = 0; start < 9; start++) {
    for (size_t len = 0; start + len <= data.size(); len += 7) {
      const uint8_t* p = data.data() + start;
      SetCrc32cAccelForTesting(false);
      const uint32_t table = Crc32cExtend(0, p, len);
      SetCrc32cAccelForTesting(true);
      EXPECT_EQ(Crc32cExtend(0, p, len), table) << start << "+" << len;
      const size_t split = len / 3;
      EXPECT_EQ(Crc32cExtend(Crc32cExtend(0, p, split), p + split,
                             len - split),
                table);
    }
  }
}

TEST(CodingTest, FixedRoundtrip) {
  Buffer b;
  PutFixed16(&b, 0xBEEF);
  PutFixed32(&b, 0xDEADBEEF);
  PutFixed64(&b, 0x0123456789ABCDEFull);
  Decoder dec{Slice(b)};
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  ASSERT_TRUE(dec.GetFixed16(&v16).ok());
  ASSERT_TRUE(dec.GetFixed32(&v32).ok());
  ASSERT_TRUE(dec.GetFixed64(&v64).ok());
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, VarintBoundaries) {
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      UINT32_MAX, 1ull << 40,
                            1ull << 63, UINT64_MAX};
  for (uint64_t v : cases) {
    Buffer b;
    PutVarint64(&b, v);
    Decoder dec{Slice(b)};
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint64(&out).ok()) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(dec.done());
  }
}

TEST(CodingTest, VarintRandomRoundtrip) {
  Random rng(1234);
  Buffer b;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    values.push_back(v);
    PutVarint64(&b, v);
  }
  Decoder dec{Slice(b)};
  for (uint64_t expected : values) {
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint64(&out).ok());
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, LengthPrefixedRoundtrip) {
  Buffer b;
  PutLengthPrefixed(&b, Slice("hello"));
  PutLengthPrefixed(&b, Slice(""));
  PutLengthPrefixed(&b, Slice("world!"));
  Decoder dec{Slice(b)};
  Slice s1, s2, s3;
  ASSERT_TRUE(dec.GetLengthPrefixed(&s1).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&s2).ok());
  ASSERT_TRUE(dec.GetLengthPrefixed(&s3).ok());
  EXPECT_EQ(s1.ToString(), "hello");
  EXPECT_EQ(s2.ToString(), "");
  EXPECT_EQ(s3.ToString(), "world!");
}

TEST(CodingTest, DecoderRejectsTruncation) {
  Buffer b;
  PutFixed32(&b, 42);
  b.resize(3);  // Truncate.
  Decoder dec{Slice(b)};
  uint32_t v;
  EXPECT_TRUE(dec.GetFixed32(&v).IsCorruption());
}

TEST(CodingTest, DecoderRejectsMalformedVarint) {
  Buffer b(11, 0xFF);  // Continuation bit never clears.
  Decoder dec{Slice(b)};
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(CodingTest, DecoderRejectsOverlongLengthPrefix) {
  Buffer b;
  PutVarint64(&b, 1000);  // Claims 1000 bytes; none follow.
  Decoder dec{Slice(b)};
  Slice s;
  EXPECT_TRUE(dec.GetLengthPrefixed(&s).IsCorruption());
}

TEST(CodingTest, PatchFixed32) {
  Buffer b;
  PutFixed32(&b, 0);
  PutFixed32(&b, 7);
  PatchFixed32(&b, 0, 0xCAFEBABE);
  EXPECT_EQ(DecodeFixed32(b.data()), 0xCAFEBABEu);
  EXPECT_EQ(DecodeFixed32(b.data() + 4), 7u);
}

TEST(CodingTest, ToHex) {
  Buffer b = {0x00, 0xab, 0xff};
  EXPECT_EQ(ToHex(Slice(b)), "00abff");
}

TEST(CodingTest, ChecksumDistinguishesInputs) {
  EXPECT_NE(Checksum32(Slice("abc")), Checksum32(Slice("abd")));
  EXPECT_EQ(Checksum32(Slice("abc")), Checksum32(Slice("abc")));
}

Buffer LzRoundtrip(const Buffer& raw) {
  Buffer packed = LzCompress(Slice(raw));
  Result<Buffer> unpacked = LzDecompress(Slice(packed), raw.size());
  EXPECT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  return unpacked.ok() ? *std::move(unpacked) : Buffer{};
}

TEST(LzTest, RoundtripEmptyAndTiny) {
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u}) {
    Buffer raw(n, 0x5a);
    EXPECT_EQ(LzRoundtrip(raw), raw) << n;
  }
}

TEST(LzTest, CompressesRepetitiveData) {
  Buffer raw(8192, 0);
  for (size_t i = 0; i < raw.size(); i++) raw[i] = "tdbtdbtdb!"[i % 10];
  Buffer packed = LzCompress(Slice(raw));
  EXPECT_LT(packed.size(), raw.size() / 4);
  EXPECT_EQ(LzRoundtrip(raw), raw);
}

TEST(LzTest, RoundtripLongRuns) {
  // offset < match length: the match overlaps its own output.
  Buffer raw(100000, 0xee);
  Buffer packed = LzCompress(Slice(raw));
  EXPECT_LT(packed.size(), 1000u);
  EXPECT_EQ(LzRoundtrip(raw), raw);
}

TEST(LzTest, RoundtripIncompressibleRandom) {
  Random rng(77);
  for (size_t n : {16u, 100u, 4096u, 70000u}) {
    Buffer raw;
    rng.Fill(&raw, n);
    Buffer packed = LzCompress(Slice(raw));
    // Random data grows slightly but must still round-trip exactly.
    EXPECT_EQ(LzRoundtrip(raw), raw) << n;
  }
}

TEST(LzTest, RoundtripMixedContent) {
  Random rng(13);
  for (int iter = 0; iter < 50; iter++) {
    size_t n = rng.Range(1, 3000);
    Buffer raw;
    rng.Fill(&raw, n);
    // Half-repeated payloads (the harness shape) and sprinkled runs.
    for (size_t i = n / 2; i < n; i++) raw[i] = raw[i - n / 2];
    if (n > 64) std::fill(raw.begin() + 8, raw.begin() + 40, 0x11);
    EXPECT_EQ(LzRoundtrip(raw), raw) << "iter " << iter;
  }
}

TEST(LzTest, DecompressRejectsOversizedClaim) {
  Buffer raw(500, 7);
  Buffer packed = LzCompress(Slice(raw));
  EXPECT_TRUE(LzDecompress(Slice(packed), raw.size()).ok());
  EXPECT_TRUE(
      LzDecompress(Slice(packed), raw.size() - 1).status().IsCorruption());
}

TEST(LzTest, DecompressRejectsTruncation) {
  Buffer raw(2000, 0);
  for (size_t i = 0; i < raw.size(); i++) raw[i] = uint8_t(i * 31);
  for (size_t i = raw.size() / 2; i < raw.size(); i++) raw[i] = raw[i / 2];
  Buffer packed = LzCompress(Slice(raw));
  for (size_t cut = 0; cut < packed.size(); cut++) {
    Buffer trunc(packed.begin(), packed.begin() + cut);
    Result<Buffer> out = LzDecompress(Slice(trunc), raw.size());
    // A prefix is only accepted when the bytes already decoded form the
    // complete payload (e.g. dropping a trailing empty-literals token) —
    // still a valid encoding of the same data. Anything short must error.
    if (out.ok()) {
      EXPECT_EQ(*out, raw) << "truncation at " << cut << " accepted";
    }
  }
}

TEST(LzTest, DecompressSurvivesMutation) {
  // Single-byte corruptions must never crash or over-read; they either
  // error out or produce some same-or-smaller output (the chunk layer's
  // Merkle hash is what detects semantic corruption).
  Random rng(4242);
  Buffer raw;
  rng.Fill(&raw, 1500);
  for (size_t i = raw.size() / 2; i < raw.size(); i++) raw[i] = raw[i - 700];
  Buffer packed = LzCompress(Slice(raw));
  for (size_t pos = 0; pos < packed.size(); pos++) {
    for (uint8_t delta : {0x01, 0x80, 0xff}) {
      Buffer bad = packed;
      bad[pos] ^= delta;
      Result<Buffer> out = LzDecompress(Slice(bad), raw.size());
      if (out.ok()) {
        EXPECT_LE(out->size(), raw.size());
      }
    }
  }
}

TEST(LzTest, DecompressRejectsGarbage) {
  Random rng(99);
  for (int iter = 0; iter < 200; iter++) {
    Buffer junk;
    rng.Fill(&junk, rng.Range(0, 300));
    Result<Buffer> out = LzDecompress(Slice(junk), 1 << 20);
    if (out.ok()) {
      EXPECT_LE(out->size(), 1u << 20);
    }
  }
}

TEST(RandomTest, DeterministicFromSeed) {
  Random a(99), b(99), c(100);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(ThreadPoolTest, ResultsLandInSubmissionOrder) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr size_t kN = 200;
  std::vector<size_t> results(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { results[i] = i * i; });
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(results[i], i * i) << i;
  }
}

TEST(ThreadPoolTest, ZeroAndOneThreadDegradeToInline) {
  for (int threads : {0, 1}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), 0);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(8);
    bool submitted_ran = false;
    pool.ParallelFor(8, [&](size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    pool.Submit([&] { submitted_ran = true; }).get();
    EXPECT_TRUE(submitted_ran);
    for (const std::thread::id& id : ran_on) {
      EXPECT_EQ(id, caller);  // Inline on the calling thread, in order.
    }
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int threads : {0, 3}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(64,
                         [&](size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives a throwing batch and accepts more work.
    std::atomic<int> done{0};
    pool.ParallelFor(16, [&](size_t) { done++; });
    EXPECT_EQ(done.load(), 16);
  }
}

TEST(ThreadPoolTest, SubmitFutureRethrows) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ErrorStatusPropagates) {
  for (int threads : {0, 4}) {
    ThreadPool pool(threads);
    Status all_ok = pool.ParallelForStatus(
        32, [](size_t) { return Status::OK(); });
    EXPECT_TRUE(all_ok.ok());
    Status failed = pool.ParallelForStatus(32, [](size_t i) {
      if (i == 7) return Status::IOError("disk on index 7");
      return Status::OK();
    });
    EXPECT_EQ(failed.code(), Status::Code::kIOError);
    EXPECT_NE(failed.ToString().find("index 7"), std::string::npos);
  }
}

}  // namespace
}  // namespace tdb
