// DurableRouter: log-before-ack, typed refusal on a failed commit, and
// recovery that is observably a service that never crashed.
//
// The kLogWriteFailed pin lives here: a refused durable append must
// surface as a typed outcome with the session — pending round included —
// untouched, and the identical retried call must succeed. The crash
// differential (durable_crash_test.cc) exercises the same paths under a
// seeded failing machine; this suite pins each path in isolation.
//
// CTest label: durable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/durable/durable_router.h"
#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/oracle/oracle.h"
#include "src/util/bit_span.h"
#include "src/workload/fingerprint.h"
#include "src/workload/workload.h"

namespace qhorn {
namespace {

constexpr char kLogDir[] = "qlog";

DurableRouterOptions Opts(int shards = 2) {
  DurableRouterOptions opts;
  opts.router.threads = 1;  // synchronous lanes: simplest deterministic base
  opts.log.fsync_policy = FsyncPolicy::kEveryAppend;
  opts.shards = shards;
  return opts;
}

/// A fresh directory under the system temp directory, removed with
/// everything in it when the test leaves scope by any path (a failed
/// ASSERT included). path() is empty if mkdtemp failed.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "qhorn-durable-XXXXXX")
            .string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Clean (reliable, completing) specs drawn from a generated fleet, so the
/// sessions exercised here are the same shapes the fuzz fleets produce.
std::vector<SessionSpec> CleanSpecs(size_t want) {
  std::vector<SessionSpec> out;
  for (uint64_t seed = 1; out.size() < want; ++seed) {
    Fleet fleet = GenerateFleet(WorkloadSpec::FromSeed(seed));
    for (const SessionSpec& s : fleet.sessions) {
      if (!s.noisy() && !s.abandon && !s.jobs.empty()) out.push_back(s);
      if (out.size() == want) break;
    }
  }
  return out;
}

/// Answers every pending round of `id` with ground truth until the session
/// runs out of jobs. Returns rounds answered. Reads each round through
/// pending_round(id), so it works whether or not a poll delivered it.
int64_t DriveToCompletion(DurableRouter& dr, DurableRouter::SessionId id,
                          const SessionSpec& spec) {
  QueryOracle truth(spec.target);
  BitVec bits;
  int64_t answered = 0;
  for (;;) {
    dr.Drain();
    std::optional<PendingRound> mine = dr.pending_round(id);
    if (!mine.has_value()) break;
    BitSpan span = bits.Prepare(mine->questions.size());
    truth.IsAnswerBatch(mine->questions, span);
    ProvideOutcome out = dr.ProvideAnswers(id, mine->round_id, span);
    if (out != ProvideOutcome::kResumed) {
      ADD_FAILURE() << "ProvideAnswers: " << ToString(out);
      break;
    }
    ++answered;
  }
  return answered;
}

TEST(DurableRouterTest, CreateWritesShardHeadersUpFront) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(/*shards=*/3), &error);
  ASSERT_NE(dr, nullptr) << error;
  EXPECT_EQ(dr->records_logged(), 0);
  for (int s = 0; s < 3; ++s) {
    std::string path = DurableRouter::ShardPath(kLogDir, s);
    EXPECT_TRUE(mem.FileExists(path)) << path;
    EXPECT_EQ(mem.DurableSize(path), SessionLog::kHeaderSize) << path;
  }
}

/// Log-before-ack over `fs`: each open, answered round and close is one
/// record in the session's shard, in call order.
void CheckEveryProtocolCallIsLoggedBeforeAck(Fs* fs,
                                             const std::string& log_dir) {
  std::string error;
  auto dr = DurableRouter::Create(fs, log_dir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  EXPECT_EQ(id, 1) << "external ids are sequential from 1";
  EXPECT_EQ(dr->records_logged(), 1);

  int64_t rounds = 0;
  { SCOPED_TRACE("drive"); rounds = DriveToCompletion(*dr, id, spec); }
  EXPECT_GT(rounds, 0) << "a clean spec with jobs must ask something";
  EXPECT_EQ(dr->records_logged(), 1 + rounds);

  EXPECT_TRUE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 2 + rounds);
  // A refused call is not logged: the router refuses the duplicate close
  // before its commit hook would append.
  EXPECT_FALSE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 2 + rounds);

  // The shard really carries the session: opened first, closed last.
  std::string path = DurableRouter::ShardPath(log_dir, /*shard=*/id % 2);
  LogReadResult r = ReadLog(fs, path);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), static_cast<size_t>(2 + rounds));
  EXPECT_EQ(r.records.front().type, LogRecordType::kSessionOpened);
  EXPECT_EQ(r.records.back().type, LogRecordType::kSessionClosed);
}

TEST(DurableRouterTest, EveryProtocolCallIsLoggedBeforeAck) {
  MemFs mem;
  CheckEveryProtocolCallIsLoggedBeforeAck(&mem, kLogDir);
}

TEST(DurableRouterTest, EveryProtocolCallIsLoggedBeforeAckOnRealFs) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty()) << "mkdtemp failed";
  RealFs fs;
  CheckEveryProtocolCallIsLoggedBeforeAck(&fs, dir.path() + "/qlog");
}

TEST(DurableRouterTest, SessionsShardByExternalId) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(/*shards=*/2), &error);
  ASSERT_NE(dr, nullptr) << error;
  std::vector<SessionSpec> specs = CleanSpecs(3);
  for (const SessionSpec& s : specs) ASSERT_GT(dr->OpenPending(s), 0);

  // External ids 1, 2, 3 over 2 shards: shard-1 gets two opens, shard-0 one.
  LogReadResult s0 = ReadLog(&mem, DurableRouter::ShardPath(kLogDir, 0));
  LogReadResult s1 = ReadLog(&mem, DurableRouter::ShardPath(kLogDir, 1));
  ASSERT_EQ(s0.status, LogReadStatus::kOk);
  ASSERT_EQ(s1.status, LogReadStatus::kOk);
  ASSERT_EQ(s0.records.size(), 1u);
  ASSERT_EQ(s1.records.size(), 2u);
  EXPECT_EQ(s0.records[0].session_id, 2);
  EXPECT_EQ(s1.records[0].session_id, 1);
  EXPECT_EQ(s1.records[1].session_id, 3);
}

TEST(DurableRouterTest, GarbageIdsAreRefusedNotLogged) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/23);
  std::string error;
  auto dr = DurableRouter::Create(&faults, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  // Session 1 opens and closes; the open of session 2 tears its append,
  // which hands id 2 back without opening anything.
  std::vector<SessionSpec> specs = CleanSpecs(2);
  ASSERT_EQ(dr->OpenPending(specs[0]), 1);
  ASSERT_TRUE(dr->Close(1));
  faults.ArmTornAppend(/*after=*/1);
  ASSERT_EQ(dr->OpenPending(specs[1]), 0);
  const int64_t logged = dr->records_logged();
  EXPECT_EQ(logged, 2);

  BitVec bits;
  for (DurableRouter::SessionId id : {42, 0, -1, 1, 2}) {
    SCOPED_TRACE(testing::Message() << "id " << id);
    EXPECT_EQ(dr->ProvideAnswers(id, 0, bits.Prepare(1)),
              id == 1 ? ProvideOutcome::kSessionClosed
                      : ProvideOutcome::kUnknownSession);
    EXPECT_FALSE(dr->Close(id));
    EXPECT_EQ(dr->pending_round(id), std::nullopt);
    if (id != 1) {
      EXPECT_EQ(dr->status(id), std::nullopt);
    }
  }
  EXPECT_EQ(dr->records_logged(), logged)
      << "refused calls must not leave records behind";
}

TEST(DurableRouterTest, RecoverOnEmptyLogsIsAFreshService) {
  MemFs mem;
  std::string error;
  { ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(), &error), nullptr); }
  RecoveryReport report;
  auto dr = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(dr, nullptr) << error;
  EXPECT_EQ(report.records_read, 0);
  EXPECT_EQ(report.sessions_recovered, 0);
  EXPECT_GT(dr->OpenPending(CleanSpecs(1)[0]), 0);
}

// The tentpole contract: kill the service mid-fleet, recover from the log
// alone, and the observable state — pending rounds, round ids, and the
// final fingerprints after the fleet finishes — is bit-identical to a
// service that never crashed. The crash arm runs over `fs`; `mem`, when
// set, is the same filesystem as a MemFs, and the machine then also loses
// its unsynced bytes at the crash (a real disk only loses the process).
void CheckRecoveryIsObservablyIdenticalMidSession(Fs* fs,
                                                  const std::string& log_dir,
                                                  MemFs* mem) {
  std::vector<SessionSpec> specs = CleanSpecs(3);

  // Reference arm: same specs, no crash.
  std::vector<std::string> want_prints(specs.size());
  {
    MemFs ref_mem;
    std::string error;
    auto ref = DurableRouter::Create(&ref_mem, kLogDir, Opts(), &error);
    ASSERT_NE(ref, nullptr) << error;
    for (size_t i = 0; i < specs.size(); ++i) {
      DurableRouter::SessionId id = ref->OpenPending(specs[i]);
      ASSERT_EQ(id, static_cast<DurableRouter::SessionId>(i + 1));
      DriveToCompletion(*ref, id, specs[i]);
      want_prints[i] = SessionFingerprint(ref->session(id));
    }
  }

  // Crash arm: open everything, answer exactly one round each, die.
  std::string error;
  auto dr = DurableRouter::Create(fs, log_dir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  for (const SessionSpec& s : specs) ASSERT_GT(dr->OpenPending(s), 0);
  dr->Drain();
  std::vector<PendingRound> before = dr->PendingRounds();
  ASSERT_EQ(before.size(), specs.size());
  BitVec bits;
  for (const PendingRound& r : before) {
    QueryOracle truth(specs[r.session_id - 1].target);
    BitSpan span = bits.Prepare(r.questions.size());
    truth.IsAnswerBatch(r.questions, span);
    ASSERT_EQ(dr->ProvideAnswers(r.session_id, r.round_id, span),
              ProvideOutcome::kResumed);
  }
  dr->Drain();
  std::vector<PendingRound> acked = dr->PendingRounds();

  dr.reset();                         // the process dies…
  if (mem != nullptr) mem->CrashAll();  // …and every unsynced byte with it

  RecoveryReport report;
  auto rec = DurableRouter::Recover(fs, log_dir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered,
            static_cast<int64_t>(specs.size()));
  EXPECT_EQ(report.sessions_closed, 0);
  EXPECT_EQ(report.rounds_replayed, static_cast<int64_t>(specs.size()));

  // Acknowledged answers survived: the rounds pending now are exactly the
  // rounds that were pending at the moment of death.
  rec->Drain();
  std::vector<PendingRound> after = rec->PendingRounds();
  ASSERT_EQ(after.size(), acked.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].session_id, acked[i].session_id);
    EXPECT_EQ(after[i].round_id, acked[i].round_id);
    EXPECT_EQ(after[i].questions, acked[i].questions);
  }

  // Finish the fleet on the recovered service; observables must match the
  // never-crashed reference bit for bit.
  for (size_t i = 0; i < specs.size(); ++i) {
    DurableRouter::SessionId id = static_cast<DurableRouter::SessionId>(i + 1);
    DriveToCompletion(*rec, id, specs[i]);
    EXPECT_EQ(SessionFingerprint(rec->session(id)), want_prints[i])
        << "session " << id << " diverged after recovery";
  }
}

TEST(DurableRouterTest, RecoveryIsObservablyIdenticalMidSession) {
  MemFs mem;
  CheckRecoveryIsObservablyIdenticalMidSession(&mem, kLogDir, &mem);
}

TEST(DurableRouterTest, RecoveryIsObservablyIdenticalMidSessionOnRealFs) {
  TempDir dir;
  ASSERT_FALSE(dir.path().empty()) << "mkdtemp failed";
  RealFs fs;
  CheckRecoveryIsObservablyIdenticalMidSession(&fs, dir.path() + "/qlog",
                                               nullptr);
}

TEST(DurableRouterTest, RecoverReclosesClosedSessions) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  DriveToCompletion(*dr, id, spec);
  ASSERT_TRUE(dr->Close(id));
  dr.reset();
  mem.CrashAll();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 1);
  EXPECT_EQ(report.sessions_closed, 1);
  EXPECT_FALSE(rec->Close(id)) << "the close outlived the crash";
  BitVec bits;
  EXPECT_EQ(rec->ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kSessionClosed);
}

TEST(DurableRouterTest, TornShardTailIsTruncatedLoudly) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  dr.reset();

  // Power loss mid-append: a partial frame lands durably on the session's
  // shard past the last complete record.
  std::string shard = DurableRouter::ShardPath(kLogDir, id % 2);
  auto f = mem.OpenAppend(shard);
  // 3 bytes of a length prefix (explicit length: the bytes include NULs).
  ASSERT_TRUE(f->Append(std::string_view("\x09\x00\x00", 3)));
  ASSERT_TRUE(f->Sync());
  mem.CrashAll();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.torn_tails_truncated, 1);
  EXPECT_EQ(report.torn_bytes_dropped, 3);
  EXPECT_EQ(report.sessions_recovered, 1);
  // The shard file itself was chopped: a second recovery sees a clean log.
  RecoveryReport again;
  rec.reset();
  auto rec2 = DurableRouter::Recover(&mem, kLogDir, Opts(), &again, &error);
  ASSERT_NE(rec2, nullptr) << error;
  EXPECT_EQ(again.torn_tails_truncated, 0);
}

TEST(DurableRouterTest, RecoverRefusesALogWrittenWithMoreShards) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(4), &error);
  ASSERT_NE(dr, nullptr) << error;
  std::vector<SessionSpec> specs = CleanSpecs(4);
  for (const SessionSpec& spec : specs) ASSERT_NE(dr->OpenPending(spec), 0);
  dr->Drain();
  dr.reset();
  // A torn tail on shard 0: a recovery that went ahead would truncate it.
  const std::string shard0 = DurableRouter::ShardPath(kLogDir, 0);
  auto f = mem.OpenAppend(shard0);
  ASSERT_TRUE(f->Append(std::string_view("\x09\x00\x00", 3)));
  ASSERT_TRUE(f->Sync());
  f.reset();
  mem.CrashAll();
  std::string before;
  ASSERT_TRUE(mem.ReadFile(shard0, &before));

  // Sessions 2 and 3 live in shard files 2 and 3, which a 2-shard
  // recovery never reads: it must refuse, not drop them.
  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(2), &report, &error);
  EXPECT_EQ(rec, nullptr);
  EXPECT_NE(error.find(DurableRouter::ShardPath(kLogDir, 2)),
            std::string::npos)
      << error;
  EXPECT_EQ(report.records_read, 0);
  EXPECT_EQ(report.torn_tails_truncated, 0);
  std::string after;
  ASSERT_TRUE(mem.ReadFile(shard0, &after));
  EXPECT_EQ(after, before) << "a refused recovery touches nothing";

  // At the shard count it was written with, the log recovers whole.
  rec = DurableRouter::Recover(&mem, kLogDir, Opts(4), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 4);
  EXPECT_EQ(report.torn_tails_truncated, 1);
}

TEST(DurableRouterTest, BitRotMakesRecoveryRefuseTheLog) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  dr.reset();

  std::string shard = DurableRouter::ShardPath(kLogDir, id % 2);
  mem.FlipDurableBitForTest(shard, (SessionLog::kHeaderSize + 9) * 8 + 4);

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  EXPECT_EQ(rec, nullptr)
      << "a log recovery cannot vouch for must never be half-replayed";
  EXPECT_NE(error.find("corrupt"), std::string::npos) << error;
}

// Satellite 6: the typed refusal. A durable append that fails must surface
// as kLogWriteFailed with the session untouched, and the identical call
// must succeed once the log is healthy.
TEST(DurableRouterTest, LogWriteFailedLeavesSessionUntouchedAndRetries) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/21);
  std::string error;
  auto dr = DurableRouter::Create(&faults, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  std::vector<PendingRound> rounds = dr->PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  PendingRound round = rounds[0];
  int64_t logged_before = dr->records_logged();

  QueryOracle truth(spec.target);
  BitVec bits;
  BitSpan span = bits.Prepare(round.questions.size());
  truth.IsAnswerBatch(round.questions, span);

  // A sync failure refuses the commit (kEveryAppend: un-synced is un-acked).
  faults.ArmSyncFailure(/*after=*/1);
  EXPECT_EQ(dr->ProvideAnswers(id, round.round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(faults.sync_failures_fired(), 1);

  // Nothing mutated: still awaiting, same round, same questions.
  EXPECT_EQ(dr->status(id), SessionStatus::kAwaitingUser);
  std::optional<PendingRound> still = dr->pending_round(id);
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->session_id, id);
  EXPECT_EQ(still->round_id, round.round_id);
  EXPECT_EQ(still->questions, round.questions);

  // The identical retry goes through (the record is appended again; the
  // duplicate is Recover's to skip).
  EXPECT_EQ(dr->ProvideAnswers(id, round.round_id, span),
            ProvideOutcome::kResumed);
  EXPECT_EQ(dr->records_logged(), logged_before + 2)
      << "retry-after-sync-failure leaves a duplicate record";
  DriveToCompletion(*dr, id, spec);
  std::string print = SessionFingerprint(dr->session(id));

  // And the duplicate folds idempotently on recovery.
  dr.reset();
  mem.CrashAll();
  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_GE(report.duplicate_records_skipped, 1);
  rec->Drain();
  EXPECT_TRUE(rec->PendingRounds().empty());
  EXPECT_EQ(SessionFingerprint(rec->session(id)), print);
}

TEST(DurableRouterTest, AnOpenWhoseSyncFailedKeepsItsIdSpent) {
  // A failed sync leaves the SessionOpened record whole in the buffer,
  // and the next sync of that WAL makes it durable. Handing its id to the
  // next open would log a second, different open under the same id.
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/24);
  std::string error;
  auto dr = DurableRouter::Create(&faults, kLogDir, Opts(/*shards=*/1),
                                  &error);
  ASSERT_NE(dr, nullptr) << error;
  std::vector<SessionSpec> specs = CleanSpecs(2);
  faults.ArmSyncFailure(/*after=*/1);
  EXPECT_EQ(dr->OpenPending(specs[0]), 0);
  ASSERT_EQ(dr->OpenPending(specs[1]), 2);
  DriveToCompletion(*dr, 2, specs[1]);
  const std::string print = SessionFingerprint(dr->session(2));
  dr.reset();
  mem.CrashAll();

  // Session 1 is an orphan nobody was told about; session 2 is intact.
  RecoveryReport report;
  auto rec =
      DurableRouter::Recover(&mem, kLogDir, Opts(/*shards=*/1), &report,
                             &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 2);
  EXPECT_EQ(SessionFingerprint(rec->session(2)), print);
}

TEST(DurableRouterTest, PoisonedLogKeepsRefusingUntilRecovery) {
  MemFs mem;
  FaultFs faults(&mem, /*seed=*/22);
  std::string error;
  auto dr =
      DurableRouter::Create(&faults, kLogDir, Opts(/*shards=*/1), &error);
  ASSERT_NE(dr, nullptr) << error;

  SessionSpec spec = CleanSpecs(1)[0];
  DurableRouter::SessionId id = dr->OpenPending(spec);
  dr->Drain();
  std::vector<PendingRound> rounds = dr->PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  QueryOracle truth(spec.target);
  BitVec bits;
  BitSpan span = bits.Prepare(rounds[0].questions.size());
  truth.IsAnswerBatch(rounds[0].questions, span);

  // A torn append poisons the shard: the refusal is sticky — retrying
  // without recovery cannot succeed, unlike the sync-failure case.
  faults.ArmTornAppend(/*after=*/1);
  EXPECT_EQ(dr->ProvideAnswers(id, rounds[0].round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(dr->ProvideAnswers(id, rounds[0].round_id, span),
            ProvideOutcome::kLogWriteFailed);
  EXPECT_EQ(dr->status(id), SessionStatus::kAwaitingUser);
}

/// Writes a SessionOpened record for each of `ids` straight into the log
/// shards (id mod shards), bypassing the router: a log some earlier run
/// left behind.
void WriteOpenRecords(MemFs* mem, int shards,
                      const std::vector<DurableRouter::SessionId>& ids,
                      const std::vector<SessionSpec>& specs) {
  std::string error;
  std::vector<std::unique_ptr<SessionLog>> logs;
  for (int s = 0; s < shards; ++s) {
    logs.push_back(
        SessionLog::Open(mem, DurableRouter::ShardPath(kLogDir, s), &error));
    ASSERT_NE(logs.back(), nullptr) << error;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(logs[static_cast<size_t>(ids[i] % shards)]->AppendSessionOpened(
        ids[i], specs[i]));
  }
}

TEST(DurableRouterTest, OutOfRangeSchemaSizeIsRefusedBeforeLogging) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  SessionSpec spec = CleanSpecs(1)[0];
  for (int n : {0, -1, kMaxVars + 1}) {
    SessionSpec bad = spec;
    bad.n = n;
    EXPECT_EQ(dr->OpenPending(bad), 0) << n;
  }
  EXPECT_EQ(dr->records_logged(), 0) << "a refused open must not be logged";
  EXPECT_EQ(dr->stats().sessions, 0);
  EXPECT_EQ(dr->OpenPending(spec), 1) << "refusals consume no id";
  dr.reset();

  // The log holds only the good open, so recovery is unaffected.
  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 1);
}

/// Specs of n = 4 whose one job runs a query of another arity.
std::vector<SessionSpec> ArityMismatchedSpecs() {
  std::vector<SessionSpec> specs;
  for (WorkloadJob job : {WorkloadJob::kVerifyTarget,
                          WorkloadJob::kVerifyMutant, WorkloadJob::kRevise}) {
    SessionSpec spec;
    spec.n = 4;
    spec.target = Query::Parse("∃x1x2 ∃x3", 4);
    spec.mutant = Query::Parse("∃x1 ∃x3", 4);
    spec.jobs = {job};
    // A default Query (n = 0) where the job reads its query.
    (job == WorkloadJob::kVerifyTarget ? spec.target : spec.mutant) = Query();
    specs.push_back(spec);
  }
  specs.push_back(specs.back());
  specs.back().mutant = Query::Parse("∃x1 ∃x5", 5);
  return specs;
}

TEST(DurableRouterTest, AnOpenWhoseJobsRunAnotherArityIsRefusedBeforeLogging) {
  // Logged, such an open would abort a lane when the session reached the
  // job, and again in every recovery that replayed the record.
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;
  for (const SessionSpec& bad : ArityMismatchedSpecs()) {
    EXPECT_EQ(dr->OpenPending(bad), 0);
  }
  EXPECT_EQ(dr->records_logged(), 0) << "a refused open must not be logged";
  EXPECT_EQ(dr->stats().sessions, 0);
  // Queries no job runs are not checked: a learn-only spec opens.
  SessionSpec learn_only;
  learn_only.n = 4;
  learn_only.jobs = {WorkloadJob::kLearn};
  EXPECT_EQ(dr->OpenPending(learn_only), 1) << "refusals consume no id";
  dr.reset();

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 1);
}

TEST(DurableRouterTest, RecoverRejectsAnOpenWhoseJobsRunAnotherArity) {
  for (const SessionSpec& bad : ArityMismatchedSpecs()) {
    MemFs mem;
    std::string error;
    {
      ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(), &error),
                nullptr);
    }
    WriteOpenRecords(&mem, /*shards=*/2, {1}, {bad});
    RecoveryReport report;
    EXPECT_EQ(DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error),
              nullptr);
    EXPECT_NE(error.find("a job over a query of n = "), std::string::npos)
        << error;
  }
}

TEST(DurableRouterTest, RecoverRejectsAnOpenWithoutVariables) {
  // A record that could never have been acknowledged (n = 0) must not
  // abort every restart: Recover refuses the log with a typed error.
  MemFs mem;
  std::string error;
  { ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(), &error), nullptr); }
  SessionSpec bad = CleanSpecs(1)[0];
  bad.n = 0;
  WriteOpenRecords(&mem, /*shards=*/2, {1}, {bad});
  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
  EXPECT_EQ(rec, nullptr);
  EXPECT_NE(error.find("n = 0"), std::string::npos) << error;

  // Likewise a record for a session id the service never issues.
  MemFs other;
  {
    ASSERT_NE(DurableRouter::Create(&other, kLogDir, Opts(), &error),
              nullptr);
  }
  WriteOpenRecords(&other, /*shards=*/2, {-4}, CleanSpecs(1));
  EXPECT_EQ(DurableRouter::Recover(&other, kLogDir, Opts(), &report, &error),
            nullptr);
  EXPECT_NE(error.find("never issued"), std::string::npos) << error;
}

TEST(DurableRouterTest, RecoverRefusesALogWrittenWithFewerShards) {
  // A 3-shard log keeps session 5 in file 2. At 4 shards session 5 belongs
  // in file 1, so a recovery that went ahead would log its next round
  // there, ahead of its open in file-index order, and the log after that
  // append could never be recovered again. Sessions 1 and 2 sit in the
  // same file at either count.
  MemFs mem;
  std::string error;
  {
    ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(3), &error), nullptr);
  }
  WriteOpenRecords(&mem, /*shards=*/3, {1, 2, 5}, CleanSpecs(3));
  // A torn tail on shard 0, which the refusal must leave in place.
  const std::string shard0 = DurableRouter::ShardPath(kLogDir, 0);
  {
    auto f = mem.OpenAppend(shard0);
    ASSERT_TRUE(f->Append(std::string_view("\x09\x00\x00", 3)));
    ASSERT_TRUE(f->Sync());
  }
  mem.CrashAll();
  std::vector<std::string> before(3);
  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(mem.ReadFile(DurableRouter::ShardPath(kLogDir, s),
                             &before[static_cast<size_t>(s)]));
  }

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(4), &report, &error);
  EXPECT_EQ(rec, nullptr);
  EXPECT_NE(error.find(DurableRouter::ShardPath(kLogDir, 2)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("session 5"), std::string::npos) << error;
  EXPECT_EQ(report.torn_tails_truncated, 0);
  for (int s = 0; s < 3; ++s) {
    std::string after;
    ASSERT_TRUE(mem.ReadFile(DurableRouter::ShardPath(kLogDir, s), &after));
    EXPECT_EQ(after, before[static_cast<size_t>(s)])
        << "a refused recovery touches nothing (file " << s << ")";
  }
  EXPECT_FALSE(mem.FileExists(DurableRouter::ShardPath(kLogDir, 3)));

  // At the shard count it was written with, the log recovers whole.
  rec = DurableRouter::Recover(&mem, kLogDir, Opts(3), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(report.sessions_recovered, 3);
  EXPECT_EQ(report.torn_tails_truncated, 1);
}

/// Appends RoundAnswered{id, round_id, answers} to the session's shard file
/// (id mod shards), bypassing the router.
void AppendRoundRecord(MemFs* mem, int shards, DurableRouter::SessionId id,
                       int64_t round_id, const std::vector<bool>& answers) {
  std::string error;
  auto log = SessionLog::Open(
      mem, DurableRouter::ShardPath(kLogDir, static_cast<int>(id % shards)),
      &error);
  ASSERT_NE(log, nullptr) << error;
  BitVec bits;
  BitSpan span = bits.Prepare(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) span.Set(i, answers[i]);
  ASSERT_TRUE(log->AppendRoundAnswered(id, round_id, span));
}

TEST(DurableRouterTest, RecoverRefusesARoundWithOneAnswerTooMany) {
  // The replayed session asks its first round again, and the log answers
  // it with one bit more than it has questions: a divergence Recover
  // refuses with a typed error instead of aborting.
  MemFs mem;
  std::string error;
  size_t asked = 0;
  {
    auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
    ASSERT_NE(dr, nullptr) << error;
    ASSERT_EQ(dr->OpenPending(CleanSpecs(1)[0]), 1);
    dr->Drain();
    std::optional<PendingRound> round = dr->pending_round(1);
    ASSERT_TRUE(round.has_value());
    asked = round->questions.size();
  }
  AppendRoundRecord(&mem, /*shards=*/2, 1, 0,
                    std::vector<bool>(asked + 1, true));
  mem.CrashAll();
  RecoveryReport report;
  EXPECT_EQ(DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error),
            nullptr);
  EXPECT_NE(error.find("session 1"), std::string::npos) << error;
  EXPECT_NE(error.find("round 0"), std::string::npos) << error;
  EXPECT_NE(error.find("answer"), std::string::npos)
      << "refused for its answer count: " << error;
  EXPECT_EQ(report.rounds_replayed, 0);
}

TEST(DurableRouterTest, RecoverRefusesARoundTheReplayedSessionNeverAsks) {
  // The session ran out of jobs after `asked` rounds; a logged answer to
  // round `asked` names a round the replay never reaches.
  const SessionSpec spec = CleanSpecs(1)[0];
  MemFs mem;
  std::string error;
  int64_t asked = 0;
  {
    auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
    ASSERT_NE(dr, nullptr) << error;
    ASSERT_EQ(dr->OpenPending(spec), 1);
    asked = DriveToCompletion(*dr, 1, spec);
    ASSERT_EQ(dr->status(1), SessionStatus::kIdle);
  }
  ASSERT_GT(asked, 0);
  AppendRoundRecord(&mem, /*shards=*/2, 1, asked, {true});
  mem.CrashAll();
  RecoveryReport report;
  EXPECT_EQ(DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error),
            nullptr);
  EXPECT_NE(error.find("session 1"), std::string::npos) << error;
  EXPECT_NE(error.find("never asked"), std::string::npos) << error;
  EXPECT_EQ(report.rounds_replayed, asked);
}

TEST(DurableRouterTest, RecoveredPollIsInExternalIdOrder) {
  constexpr int kShards = 4;
  std::vector<SessionSpec> specs = CleanSpecs(9);

  // Sessions opened one after another, some a round further along.
  {
    MemFs mem;
    std::string error;
    auto dr = DurableRouter::Create(&mem, kLogDir, Opts(kShards), &error);
    ASSERT_NE(dr, nullptr) << error;
    for (const SessionSpec& spec : specs) ASSERT_GT(dr->OpenPending(spec), 0);
    dr->Drain();
    BitVec bits;
    for (const PendingRound& r : dr->PendingRounds()) {
      if (r.session_id % 2 == 0) continue;
      QueryOracle truth(specs[static_cast<size_t>(r.session_id - 1)].target);
      BitSpan span = bits.Prepare(r.questions.size());
      truth.IsAnswerBatch(r.questions, span);
      ASSERT_EQ(dr->ProvideAnswers(r.session_id, r.round_id, span),
                ProvideOutcome::kResumed);
    }
    dr->Drain();
    // Every awaiting round, delivered by a poll or not, in id order.
    std::vector<PendingRound> before;
    for (DurableRouter::SessionId id = 1;
         id <= static_cast<DurableRouter::SessionId>(specs.size()); ++id) {
      std::optional<PendingRound> round = dr->pending_round(id);
      if (round.has_value()) before.push_back(std::move(*round));
    }
    ASSERT_EQ(before.size(), specs.size()) << "one round finishes no session";
    dr.reset();

    RecoveryReport report;
    auto rec =
        DurableRouter::Recover(&mem, kLogDir, Opts(kShards), &report, &error);
    ASSERT_NE(rec, nullptr) << error;
    rec->Drain();
    std::vector<PendingRound> after = rec->PendingRounds();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(after[i - 1].session_id, after[i].session_id);
      }
      EXPECT_EQ(after[i].session_id, before[i].session_id);
      EXPECT_EQ(after[i].round_id, before[i].round_id);
      EXPECT_EQ(after[i].questions, before[i].questions);
      EXPECT_EQ(rec->status(after[i].session_id), SessionStatus::kAwaitingUser);
    }
  }

  // A log with holes in its ids (opens that gave up their id under
  // contention): the poll must still come out in id order with the
  // logged ids.
  {
    MemFs mem;
    std::string error;
    {
      ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(kShards), &error),
                nullptr);
    }
    const std::vector<DurableRouter::SessionId> ids = {1, 2, 3, 6, 7, 9,
                                                       12, 13, 19};
    WriteOpenRecords(&mem, kShards, ids, specs);
    RecoveryReport report;
    auto rec =
        DurableRouter::Recover(&mem, kLogDir, Opts(kShards), &report, &error);
    ASSERT_NE(rec, nullptr) << error;
    EXPECT_EQ(report.sessions_recovered, static_cast<int64_t>(ids.size()));
    rec->Drain();
    std::vector<PendingRound> rounds = rec->PendingRounds();
    ASSERT_EQ(rounds.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(rounds[i].session_id, ids[i]);
      EXPECT_EQ(rounds[i].round_id, 0);
    }
    // A fresh open continues past the highest recovered id.
    EXPECT_EQ(rec->OpenPending(specs[0]), 20);
  }
}

TEST(DurableRouterTest, FirstPollAfterRecoverRedeliversEveryAwaitingRound) {
  // The poll delivers each round once, so before the crash every awaiting
  // round has been delivered and a poll returns nothing. The recovered
  // service has no such history: its first poll delivers every awaiting
  // round again, in id order, and its second poll nothing.
  constexpr int kShards = 4;
  std::vector<SessionSpec> specs = CleanSpecs(9);
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(kShards), &error);
  ASSERT_NE(dr, nullptr) << error;
  for (const SessionSpec& spec : specs) ASSERT_GT(dr->OpenPending(spec), 0);
  dr->Drain();
  BitVec bits;
  for (const PendingRound& r : dr->PendingRounds()) {
    if (r.session_id == 5) {
      ASSERT_TRUE(dr->Close(r.session_id));
      continue;
    }
    if (r.session_id % 3 != 0) continue;
    QueryOracle truth(specs[static_cast<size_t>(r.session_id - 1)].target);
    BitSpan span = bits.Prepare(r.questions.size());
    truth.IsAnswerBatch(r.questions, span);
    ASSERT_EQ(dr->ProvideAnswers(r.session_id, r.round_id, span),
              ProvideOutcome::kResumed);
  }
  dr->Drain();
  EXPECT_EQ(dr->PendingRounds().size(), 3u) << "sessions 3, 6 and 9";
  EXPECT_TRUE(dr->PendingRounds().empty()) << "every round was delivered";
  std::vector<PendingRound> awaiting;
  for (DurableRouter::SessionId id = 1; id <= 9; ++id) {
    std::optional<PendingRound> round = dr->pending_round(id);
    if (round.has_value()) awaiting.push_back(std::move(*round));
  }
  ASSERT_EQ(awaiting.size(), 8u) << "all but the closed session";
  dr.reset();
  mem.CrashAll();

  RecoveryReport report;
  auto rec =
      DurableRouter::Recover(&mem, kLogDir, Opts(kShards), &report, &error);
  ASSERT_NE(rec, nullptr) << error;
  rec->Drain();
  std::vector<PendingRound> first = rec->PendingRounds();
  ASSERT_EQ(first.size(), awaiting.size());
  for (size_t i = 0; i < first.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(first[i - 1].session_id, first[i].session_id);
    }
    EXPECT_EQ(first[i].session_id, awaiting[i].session_id);
    EXPECT_EQ(first[i].round_id, awaiting[i].round_id);
    EXPECT_EQ(first[i].questions, awaiting[i].questions);
  }
  EXPECT_TRUE(rec->PendingRounds().empty());
}

TEST(DurableRouterTest, PendingRoundRereadsADeliveredRoundInExternalIdForm) {
  constexpr int kShards = 4;
  std::vector<SessionSpec> specs = CleanSpecs(4);
  MemFs mem;
  std::string error;
  {
    ASSERT_NE(DurableRouter::Create(&mem, kLogDir, Opts(kShards), &error),
              nullptr);
  }
  // Ids 2, 3 and 5 are never opened.
  const std::vector<DurableRouter::SessionId> ids = {1, 4, 6, 7};
  WriteOpenRecords(&mem, kShards, ids, specs);
  RecoveryReport report;
  auto dr =
      DurableRouter::Recover(&mem, kLogDir, Opts(kShards), &report, &error);
  ASSERT_NE(dr, nullptr) << error;
  dr->Drain();
  std::vector<PendingRound> polled = dr->PendingRounds();
  ASSERT_EQ(polled.size(), ids.size());
  for (const PendingRound& round : polled) {
    std::optional<PendingRound> again = dr->pending_round(round.session_id);
    ASSERT_TRUE(again.has_value()) << round.session_id;
    EXPECT_EQ(again->session_id, round.session_id);
    EXPECT_EQ(again->round_id, round.round_id);
    EXPECT_EQ(again->questions, round.questions);
  }
  // Unknown, never-opened, closed and finished sessions have no round.
  for (DurableRouter::SessionId id : {-1, 0, 2, 3, 5, 8, 1000}) {
    EXPECT_EQ(dr->pending_round(id), std::nullopt) << id;
  }
  ASSERT_TRUE(dr->Close(4));
  EXPECT_EQ(dr->pending_round(4), std::nullopt);
  DriveToCompletion(*dr, 6, specs[2]);
  EXPECT_EQ(dr->status(6), SessionStatus::kIdle);
  EXPECT_EQ(dr->pending_round(6), std::nullopt);
}

TEST(DurableRouterTest, ConcurrentOpensGetDistinctIdsWhileAPollRuns) {
  // Two openers race each other and a poller. Every open must get its own
  // id (and log it once), and no poll may see a round of a session whose
  // ids are not mapped yet. Repeated on fresh services because one race
  // does not always interleave. Runs under TSan in the durable label.
  constexpr int kPerOpener = 48;
  std::vector<SessionSpec> specs = CleanSpecs(2 * kPerOpener);
  for (int attempt = 0; attempt < 4; ++attempt) {
    SCOPED_TRACE(testing::Message() << "attempt " << attempt);
    MemFs mem;
    std::string error;
    DurableRouterOptions opts = Opts(/*shards=*/4);
    opts.router.threads = 3;
    auto dr = DurableRouter::Create(&mem, kLogDir, opts, &error);
    ASSERT_NE(dr, nullptr) << error;

    std::atomic<bool> go{false};  // start all three threads together
    std::atomic<int> openers_left{2};
    std::vector<DurableRouter::SessionId> opened[2];
    std::vector<std::thread> openers;
    for (int t = 0; t < 2; ++t) {
      openers.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kPerOpener; ++i) {
          opened[t].push_back(dr->OpenPending(specs[t * kPerOpener + i]));
        }
        openers_left.fetch_sub(1, std::memory_order_release);
      });
    }
    std::vector<DurableRouter::SessionId> polled;  // the poller's rounds
    std::thread poller([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (openers_left.load(std::memory_order_acquire) > 0) {
        std::vector<PendingRound> rounds = dr->PendingRounds();
        for (const PendingRound& round : rounds) {
          polled.push_back(round.session_id);
        }
        for (size_t i = 0; i < rounds.size(); ++i) {
          const bool in_range = rounds[i].session_id >= 1 &&
                                rounds[i].session_id <= 2 * kPerOpener;
          const bool ascending =
              i == 0 || rounds[i - 1].session_id < rounds[i].session_id;
          if (!in_range || !ascending) {
            ADD_FAILURE() << "poll returned id " << rounds[i].session_id
                          << " at position " << i;
            return;
          }
        }
      }
    });
    go.store(true, std::memory_order_release);
    for (std::thread& t : openers) t.join();
    poller.join();

    std::vector<DurableRouter::SessionId> all = opened[0];
    all.insert(all.end(), opened[1].begin(), opened[1].end());
    std::sort(all.begin(), all.end());
    std::vector<DurableRouter::SessionId> want(2 * kPerOpener);
    for (size_t i = 0; i < want.size(); ++i) {
      want[i] = static_cast<DurableRouter::SessionId>(i + 1);
    }
    EXPECT_EQ(all, want) << "every open gets its own id";
    EXPECT_EQ(dr->records_logged(), 2 * kPerOpener);

    // Each session's first round was delivered once: by the racing poll
    // or by this one. The final poll, like every racing batch, comes back
    // strictly ascending by external id.
    dr->Drain();
    std::vector<DurableRouter::SessionId> last;
    for (const PendingRound& round : dr->PendingRounds()) {
      last.push_back(round.session_id);
    }
    EXPECT_TRUE(std::adjacent_find(last.begin(), last.end(),
                                   [](DurableRouter::SessionId a,
                                      DurableRouter::SessionId b) {
                                     return a >= b;
                                   }) == last.end())
        << "final poll is not strictly ascending";
    polled.insert(polled.end(), last.begin(), last.end());
    std::sort(polled.begin(), polled.end());
    EXPECT_EQ(polled, want);
    // Each id hosts the spec its own opener passed.
    for (int t = 0; t < 2; ++t) {
      for (int i = 0; i < kPerOpener; ++i) {
        const DurableRouter::SessionId id = opened[t][static_cast<size_t>(i)];
        EXPECT_EQ(dr->session(id).n(), specs[t * kPerOpener + i].n);
      }
    }
  }
}

}  // namespace
}  // namespace qhorn
