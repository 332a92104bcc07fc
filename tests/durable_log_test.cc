// SessionLog + ReadLog + the fault-injection filesystems: the unit family
// under the crash-recovery differential (durable_crash_test.cc).
//
// The contracts pinned here, one per failure shape:
//   * torn tail       → kOk + torn_tail, valid prefix kept, drop reported;
//   * bit rot         → kCorruptRecord, whole log rejected;
//   * undecodable     → kBadRecord (CRC says written-as-is, writer wrong);
//   * failed append   → log poisoned, all later appends refused;
//   * failed sync     → retryable, the duplicate is recovery's problem.
//
// CTest label: durable.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/util/crc32c.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

constexpr char kPath[] = "shard-0.qlog";

// RFC 3720 (iSCSI) known-answer vectors: the framing is only as good as
// the polynomial actually implemented.
TEST(Crc32cTest, KnownAnswerVectors) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  EXPECT_EQ(Crc32c(std::string_view("456789"), Crc32c(std::string_view("123"))),
            Crc32c(std::string_view("123456789")));
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc) << "masking must actually move the bits";
  }
}

SessionSpec SampleSpec(size_t index = 0) {
  Fleet fleet = GenerateFleet(WorkloadSpec::FromSeed(7));
  QHORN_CHECK(index < fleet.sessions.size());
  return fleet.sessions[index];
}

std::unique_ptr<SessionLog> MustOpen(Fs* fs) {
  std::string error;
  auto log = SessionLog::Open(fs, kPath, &error);
  EXPECT_NE(log, nullptr) << error;
  return log;
}

BitSpan MakeAnswers(BitVec& vec, std::initializer_list<bool> bits) {
  BitSpan span = vec.Prepare(bits.size());
  size_t i = 0;
  for (bool b : bits) span.Set(i++, b);
  return span;
}

TEST(SessionLogTest, OpenWritesSyncedHeader) {
  MemFs mem;
  auto log = MustOpen(&mem);
  ASSERT_NE(log, nullptr);
  // The header is durable before any record: a crash between open and the
  // first append must leave a recognizable (empty) log, not garbage.
  EXPECT_EQ(mem.DurableSize(kPath), SessionLog::kHeaderSize);

  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kOk);
  EXPECT_TRUE(r.existed);
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, SessionLog::kHeaderSize);
}

TEST(SessionLogTest, ReadMissingFileIsCleanAndEmpty) {
  MemFs mem;
  LogReadResult r = ReadLog(&mem, "never-created.qlog");
  EXPECT_EQ(r.status, LogReadStatus::kOk);
  EXPECT_FALSE(r.existed);
  EXPECT_TRUE(r.records.empty());
}

TEST(SessionLogTest, RecordsRoundTrip) {
  MemFs mem;
  SessionSpec spec = SampleSpec();
  {
    auto log = MustOpen(&mem);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendSessionOpened(17, spec));
    BitVec vec;
    ASSERT_TRUE(
        log->AppendRoundAnswered(17, 0, MakeAnswers(vec, {true, false, true})));
    ASSERT_TRUE(log->AppendRoundAnswered(17, 1, MakeAnswers(vec, {false})));
    ASSERT_TRUE(log->AppendSessionClosed(17));
    EXPECT_EQ(log->records_appended(), 4);
    EXPECT_FALSE(log->poisoned());
  }

  LogReadResult r = ReadLog(&mem, kPath);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), 4u);

  EXPECT_EQ(r.records[0].type, LogRecordType::kSessionOpened);
  EXPECT_EQ(r.records[0].session_id, 17);
  EXPECT_EQ(r.records[0].spec.n, spec.n);
  EXPECT_EQ(r.records[0].spec.target, spec.target);
  EXPECT_EQ(r.records[0].spec.mutant, spec.mutant);
  EXPECT_EQ(r.records[0].spec.jobs, spec.jobs);
  EXPECT_EQ(r.records[0].spec.noise_seed, spec.noise_seed);

  EXPECT_EQ(r.records[1].type, LogRecordType::kRoundAnswered);
  EXPECT_EQ(r.records[1].session_id, 17);
  EXPECT_EQ(r.records[1].round_id, 0);
  EXPECT_EQ(r.records[1].answers, (std::vector<bool>{true, false, true}));

  EXPECT_EQ(r.records[2].round_id, 1);
  EXPECT_EQ(r.records[2].answers, std::vector<bool>{false});

  EXPECT_EQ(r.records[3].type, LogRecordType::kSessionClosed);
  EXPECT_EQ(r.records[3].session_id, 17);
  EXPECT_EQ(r.valid_bytes, mem.DurableSize(kPath));
  EXPECT_EQ(r.dropped_bytes, 0u);
}

TEST(SessionLogTest, WideAnswerRoundSurvivesByteBoundaries) {
  MemFs mem;
  auto log = MustOpen(&mem);
  ASSERT_NE(log, nullptr);
  // 67 bits: crosses byte and word boundaries, with a ragged final byte.
  BitVec vec;
  BitSpan span = vec.Prepare(67);
  std::vector<bool> expect(67);
  for (size_t i = 0; i < 67; ++i) {
    bool bit = (i % 3) == 0 || i == 66;
    span.Set(i, bit);
    expect[i] = bit;
  }
  ASSERT_TRUE(log->AppendRoundAnswered(5, 9, span));

  LogReadResult r = ReadLog(&mem, kPath);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].answers, expect);
}

TEST(SessionLogTest, TornTailIsTruncatedLoudlyNotRejected) {
  MemFs mem;
  uint64_t after_first = 0;
  {
    auto log = MustOpen(&mem);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendSessionOpened(1, SampleSpec()));
    after_first = mem.DurableSize(kPath);
    ASSERT_TRUE(log->AppendSessionClosed(1));
  }
  // Power loss mid-append: keep the first record plus a strict prefix of
  // the second frame.
  uint64_t torn = after_first + 5;
  ASSERT_LT(torn, mem.DurableSize(kPath));
  ASSERT_TRUE(mem.Truncate(kPath, torn));

  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kOk) << r.error;
  EXPECT_TRUE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].type, LogRecordType::kSessionOpened);
  EXPECT_EQ(r.valid_bytes, after_first);
  EXPECT_EQ(r.dropped_bytes, 5u);
  EXPECT_FALSE(r.error.empty()) << "torn tails must be reported loudly";
}

TEST(SessionLogTest, TruncatedHeaderIsATornTail) {
  MemFs mem;
  { MustOpen(&mem); }
  ASSERT_TRUE(mem.Truncate(kPath, 3));
  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kOk);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_EQ(r.dropped_bytes, 3u);
}

TEST(SessionLogTest, ForeignHeaderIsRejected) {
  MemFs mem;
  auto f = mem.OpenAppend(kPath);
  ASSERT_TRUE(f->Append("NOTQHORN-and-more-bytes"));
  ASSERT_TRUE(f->Sync());

  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kBadHeader);

  std::string error;
  auto log = SessionLog::Open(&mem, kPath, &error);
  EXPECT_EQ(log, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SessionLogTest, BitRotInACompleteFrameRejectsTheLog) {
  MemFs mem;
  {
    auto log = MustOpen(&mem);
    ASSERT_NE(log, nullptr);
    ASSERT_TRUE(log->AppendSessionOpened(1, SampleSpec()));
    ASSERT_TRUE(log->AppendSessionClosed(1));
  }
  // Flip one payload bit of the *first* record: both frames stay complete,
  // so this must read as corruption, not as a torn tail.
  mem.FlipDurableBitForTest(kPath, (SessionLog::kHeaderSize + 9) * 8 + 2);

  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kCorruptRecord);
  EXPECT_FALSE(r.error.empty());
}

TEST(SessionLogTest, CrcValidButUndecodableFrameIsBadRecord) {
  MemFs mem;
  { MustOpen(&mem); }
  // Hand-craft a frame whose CRC is correct but whose record type (0x7f)
  // no release has ever written.
  std::string payload;
  payload.push_back(0x7f);
  payload += "junk-body";
  std::string frame;
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = MaskCrc32c(Crc32c(payload));
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(len >> (8 * i)));
  for (int i = 0; i < 4; ++i) frame.push_back(static_cast<char>(crc >> (8 * i)));
  frame += payload;

  auto f = mem.OpenAppend(kPath);
  ASSERT_TRUE(f->Append(frame));
  ASSERT_TRUE(f->Sync());

  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kBadRecord);
  EXPECT_FALSE(r.error.empty());
}

TEST(SessionLogTest, FailedAppendPoisonsTheLog) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/11);
  auto log = MustOpen(&faults);
  ASSERT_NE(log, nullptr);
  ASSERT_TRUE(log->AppendSessionOpened(1, SampleSpec()));

  faults.ArmTornAppend(/*after=*/1);
  EXPECT_FALSE(log->AppendSessionClosed(1));
  EXPECT_TRUE(log->poisoned());
  EXPECT_EQ(faults.torn_appends_fired(), 1);

  // Poison is sticky: the tail is indeterminate, so even a clean append
  // must be refused — only crash-style recovery may touch this file again.
  EXPECT_FALSE(log->AppendSessionClosed(1));

  // And the torn tail on disk is exactly what recovery expects to chop.
  LogReadResult r = ReadLog(&mem, kPath);
  EXPECT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_TRUE(r.torn_tail || r.dropped_bytes == 0)
      << "a strict prefix either tears the tail or vanishes";
}

TEST(SessionLogTest, FailedSyncIsRetryableNotPoison) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/12);
  auto log = MustOpen(&faults);
  ASSERT_NE(log, nullptr);

  faults.ArmSyncFailure(/*after=*/1);
  SessionSpec spec = SampleSpec();
  EXPECT_FALSE(log->AppendSessionOpened(3, spec));
  EXPECT_FALSE(log->poisoned()) << "a failed fsync leaves the record whole";
  EXPECT_EQ(faults.sync_failures_fired(), 1);

  // The caller's contract: retry by appending again. The log now carries a
  // duplicate record — recovery's idempotent-skip handles that, not us.
  EXPECT_TRUE(log->AppendSessionOpened(3, spec));

  LogReadResult r = ReadLog(&mem, kPath);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].session_id, r.records[1].session_id);
}

TEST(SessionLogTest, MemFsCrashKeepsDurablePrefixOnly) {
  MemFs mem;
  auto f = mem.OpenAppend("file");
  ASSERT_TRUE(f->Append("durable-part"));
  ASSERT_TRUE(f->Sync());
  ASSERT_TRUE(f->Append("buffered-tail"));
  EXPECT_EQ(mem.TotalSize("file"), 25u);
  EXPECT_EQ(mem.DurableSize("file"), 12u);

  mem.CrashAll();
  std::string back;
  ASSERT_TRUE(mem.ReadFile("file", &back));
  EXPECT_EQ(back, "durable-part");
}

TEST(SessionLogTest, FaultFsShortWriteBuffersPrefixWithoutDurability) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/99);
  auto f = faults.OpenAppend("file");
  faults.ArmShortWrite(/*after=*/1);
  EXPECT_FALSE(f->Append("0123456789"));
  EXPECT_EQ(faults.short_writes_fired(), 1);
  EXPECT_FALSE(faults.fault_armed());
  // A strict prefix may be buffered, but none of it is durable: the
  // crash-free analogue of a torn append.
  EXPECT_LT(mem.TotalSize("file"), 10u);
  EXPECT_EQ(mem.DurableSize("file"), 0u);
}

TEST(SessionLogTest, FaultFsBitFlipIsSilent) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/5);
  auto f = faults.OpenAppend("file");
  faults.ArmBitFlip(/*after=*/1, /*bit=*/1);
  EXPECT_TRUE(f->Append("A"))
      << "bit rot reports success — that is what makes it rot";
  EXPECT_EQ(faults.bit_flips_fired(), 1);
  std::string back;
  ASSERT_TRUE(mem.ReadFile("file", &back));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], 'C');  // 'A' (0x41) with bit 1 inverted
}

}  // namespace
}  // namespace qhorn
