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
#include <memory>
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
/// runs out of jobs. Returns rounds answered.
int64_t DriveToCompletion(DurableRouter& dr, DurableRouter::SessionId id,
                          const SessionSpec& spec) {
  QueryOracle truth(spec.target);
  BitVec bits;
  int64_t answered = 0;
  for (;;) {
    dr.Drain();
    std::vector<PendingRound> rounds = dr.PendingRounds();
    const PendingRound* mine = nullptr;
    for (const PendingRound& r : rounds) {
      if (r.session_id == id) mine = &r;
    }
    if (mine == nullptr) break;
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

TEST(DurableRouterTest, EveryProtocolCallIsLoggedBeforeAck) {
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
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
  // Log-before-ack holds even for the refusal path: the duplicate close is
  // appended before the router reports already-closed, and Recover skips
  // it idempotently (RecoverReclosesClosedSessions covers the replay side).
  EXPECT_FALSE(dr->Close(id));
  EXPECT_EQ(dr->records_logged(), 3 + rounds);

  // The shard really carries the session: opened first, closed last.
  std::string path = DurableRouter::ShardPath(kLogDir, /*shard=*/id % 2);
  LogReadResult r = ReadLog(&mem, path);
  ASSERT_EQ(r.status, LogReadStatus::kOk) << r.error;
  ASSERT_EQ(r.records.size(), static_cast<size_t>(3 + rounds));
  EXPECT_EQ(r.records.front().type, LogRecordType::kSessionOpened);
  EXPECT_EQ(r.records.back().type, LogRecordType::kSessionClosed);
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
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
  ASSERT_NE(dr, nullptr) << error;

  BitVec bits;
  EXPECT_EQ(dr->ProvideAnswers(42, 0, bits.Prepare(1)),
            ProvideOutcome::kUnknownSession);
  EXPECT_FALSE(dr->Close(42));
  EXPECT_EQ(dr->status(42), std::nullopt);
  EXPECT_EQ(dr->records_logged(), 0)
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
// service that never crashed.
TEST(DurableRouterTest, RecoveryIsObservablyIdenticalMidSession) {
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
  MemFs mem;
  std::string error;
  auto dr = DurableRouter::Create(&mem, kLogDir, Opts(), &error);
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

  dr.reset();      // the process dies…
  mem.CrashAll();  // …and every unsynced byte dies with it

  RecoveryReport report;
  auto rec = DurableRouter::Recover(&mem, kLogDir, Opts(), &report, &error);
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
  std::vector<PendingRound> still = dr->PendingRounds();
  ASSERT_EQ(still.size(), 1u);
  EXPECT_EQ(still[0].round_id, round.round_id);
  EXPECT_EQ(still[0].questions, round.questions);

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
    logs.push_back(SessionLog::Open(mem, DurableRouter::ShardPath(kLogDir, s),
                                    SessionLogOptions(), &error));
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
    std::vector<PendingRound> before = dr->PendingRounds();
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
  // contention): router ids no longer follow external ids, and the poll
  // must still come out in external-id order with the right ids.
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
    std::thread poller([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (openers_left.load(std::memory_order_acquire) > 0) {
        std::vector<PendingRound> rounds = dr->PendingRounds();
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

    dr->Drain();
    std::vector<PendingRound> rounds = dr->PendingRounds();
    ASSERT_EQ(rounds.size(), want.size());
    for (size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_EQ(rounds[i].session_id, want[i]);
    }
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
