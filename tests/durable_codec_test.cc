// Durable codec: the byte-identity contract. SessionOpened records carry
// SessionSpecs; recovery re-creates sessions from the decoded spec, so
// encode → decode → re-encode must be the identity on bytes — a recovered
// session is provably the same session. The sweep drives the same
// seed-derived fleets the crash harness replays.
//
// CTest label: durable.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/durable/codec.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

TEST(DurableCodecTest, PrimitivesRoundTrip) {
  std::string buf;
  Encoder e(&buf);
  e.PutU8(0xab);
  e.PutU32(0xdeadbeef);
  e.PutU64(0x0123456789abcdefULL);
  e.PutI64(-42);
  e.PutDouble(0.1);
  e.PutDouble(-0.0);
  e.PutBytes("hello");

  Decoder in(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d1, d2;
  std::string bytes;
  ASSERT_TRUE(in.GetU8(&u8));
  ASSERT_TRUE(in.GetU32(&u32));
  ASSERT_TRUE(in.GetU64(&u64));
  ASSERT_TRUE(in.GetI64(&i64));
  ASSERT_TRUE(in.GetDouble(&d1));
  ASSERT_TRUE(in.GetDouble(&d2));
  ASSERT_TRUE(in.GetBytes(&bytes));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(d1, 0.1);
  EXPECT_EQ(d2, 0.0);
  EXPECT_TRUE(std::signbit(d2));
  EXPECT_EQ(bytes, "hello");
}

TEST(DurableCodecTest, DecoderRefusesTruncation) {
  std::string buf;
  Encoder e(&buf);
  e.PutU64(7);
  Decoder in(std::string_view(buf).substr(0, 5));
  uint64_t v;
  EXPECT_FALSE(in.GetU64(&v));
  std::string bytes;
  // Length prefix claims 16 bytes but only 3 follow (explicit-length view:
  // the encoding contains NUL bytes).
  Decoder in2(std::string_view("\x10\x00\x00\x00" "abc", 7));
  EXPECT_FALSE(in2.GetBytes(&bytes));
}

TEST(DurableCodecTest, QueryRoundTripsStructurally) {
  Query q = Query::Parse("A x1x2 -> x4 ; E x3 -> x6 ; A x5", 8);
  std::string buf;
  EncodeQuery(q, &buf);
  Decoder in(buf);
  Query back;
  ASSERT_TRUE(DecodeQuery(in, &back));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(q, back);
}

TEST(DurableCodecTest, QueryDecodeRejectsOversizedSchema) {
  std::string buf;
  Encoder e(&buf);
  e.PutU32(65);  // n > 64 cannot be a VarSet schema
  e.PutU32(0);
  e.PutU32(0);
  Decoder in(buf);
  Query q;
  EXPECT_FALSE(DecodeQuery(in, &q));
}

// The satellite contract: across a seed sweep of generated fleets, spec
// encoding is deterministic and decode inverts it byte for byte.
TEST(DurableCodecTest, SessionSpecReencodeIsByteIdentical64Seeds) {
  int64_t specs = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Fleet fleet = GenerateFleet(WorkloadSpec::FromSeed(seed));
    for (const SessionSpec& spec : fleet.sessions) {
      std::string first;
      EncodeSessionSpec(spec, &first);

      Decoder in(first);
      SessionSpec decoded;
      ASSERT_TRUE(DecodeSessionSpec(in, &decoded))
          << "seed " << seed << ": spec failed to decode";
      ASSERT_TRUE(in.empty()) << "seed " << seed << ": trailing bytes";

      std::string second;
      EncodeSessionSpec(decoded, &second);
      ASSERT_EQ(first, second)
          << "seed " << seed << ": re-encode is not byte-identical";

      // And the decoded spec is semantically the one generated.
      EXPECT_EQ(decoded.query_class, spec.query_class);
      EXPECT_EQ(decoded.n, spec.n);
      EXPECT_EQ(decoded.target, spec.target);
      EXPECT_EQ(decoded.mutant, spec.mutant);
      EXPECT_EQ(decoded.flip_rate, spec.flip_rate);
      EXPECT_EQ(decoded.noise_seed, spec.noise_seed);
      EXPECT_EQ(decoded.jobs, spec.jobs);
      EXPECT_EQ(decoded.abandon, spec.abandon);
      EXPECT_EQ(decoded.abandon_after_rounds, spec.abandon_after_rounds);
      ++specs;
    }
  }
  EXPECT_GT(specs, 64) << "the sweep generated implausibly few sessions";
}

TEST(DurableCodecTest, WorkloadSpecReencodeIsByteIdentical64Seeds) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    WorkloadSpec spec = WorkloadSpec::FromSeed(seed);
    std::string first;
    EncodeWorkloadSpec(spec, &first);

    Decoder in(first);
    WorkloadSpec decoded;
    ASSERT_TRUE(DecodeWorkloadSpec(in, &decoded)) << "seed " << seed;
    ASSERT_TRUE(in.empty());

    std::string second;
    EncodeWorkloadSpec(decoded, &second);
    ASSERT_EQ(first, second) << "seed " << seed;
    EXPECT_EQ(decoded.seed, spec.seed);
    EXPECT_EQ(decoded.sessions, spec.sessions);
    EXPECT_EQ(decoded.lanes, spec.lanes);
    EXPECT_EQ(decoded.ReproLine(), spec.ReproLine());
  }
}

TEST(DurableCodecTest, SessionSpecDecodeRejectsForeignEnums) {
  Fleet fleet = GenerateFleet(WorkloadSpec::FromSeed(3));
  ASSERT_FALSE(fleet.sessions.empty());
  std::string buf;
  EncodeSessionSpec(fleet.sessions[0], &buf);
  // First byte is the query class tag; 0xee is from no known enum.
  buf[0] = static_cast<char>(0xee);
  Decoder in(buf);
  SessionSpec spec;
  EXPECT_FALSE(DecodeSessionSpec(in, &spec));
}

}  // namespace
}  // namespace qhorn
