// Runtime lock-rank checker: every discipline violation must abort with a
// diagnostic naming both locks and the full held stack — before the
// would-be deadlock blocks — and a rank-clean multi-threaded walk of the
// real lock chain must run silently.
//
// The whole suite is gated on kLockRankChecksEnabled: release builds
// compile the checker out (the BM_RouterContention gate pins that this
// costs nothing), so the death tests would not die there and are skipped.
//
// CTest label: continuation (the checker guards the same machinery the
// continuation suites stress).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/checked_mutex.h"
#include "src/util/executor.h"
#include "src/util/fiber.h"
#include "src/util/lock_ranks.h"

namespace qhorn {
namespace {

#define SKIP_WITHOUT_RANK_CHECKS()                                     \
  do {                                                                 \
    if (!kLockRankChecksEnabled) {                                     \
      GTEST_SKIP() << "lock-rank checker compiled out (release build)"; \
    }                                                                  \
  } while (0)

TEST(LockRankTest, InOrderAcquisitionIsClean) {
  Mutex low("low-mutex", LockRank::kExecutor);
  Mutex mid("mid-mutex", LockRank::kRouterShard);
  Mutex high("high-mutex", LockRank::kWalShard);
  {
    MutexLock a(&low);
    MutexLock b(&mid);
    MutexLock c(&high);
    if (kLockRankChecksEnabled) {
      EXPECT_EQ(LockRankChecker::HeldCount(), 3);
      EXPECT_EQ(LockRankChecker::HeldCountAtRank(LockRank::kRouterShard), 1);
    }
  }
  EXPECT_EQ(LockRankChecker::HeldCount(), 0);
}

TEST(LockRankDeathTest, OutOfRankAcquisitionDiesNamingBothLocks) {
  SKIP_WITHOUT_RANK_CHECKS();
  Mutex memo("memo-mutex", LockRank::kMemo);
  Mutex shard("router-shard-mutex", LockRank::kRouterShard);
  EXPECT_DEATH(
      {
        MutexLock outer(&memo);
        MutexLock inner(&shard);
      },
      "lock-rank violation: acquiring 'router-shard-mutex'.*"
      "while holding 'memo-mutex'");
}

TEST(LockRankDeathTest, SameRankAcquisitionDies) {
  SKIP_WITHOUT_RANK_CHECKS();
  // Two locks of one rank held together is the cross-shard deadlock shape
  // (two threads, opposite orders); the checker forbids it outright.
  Mutex a("shard-a", LockRank::kRouterShard);
  Mutex b("shard-b", LockRank::kRouterShard);
  EXPECT_DEATH(
      {
        MutexLock outer(&a);
        MutexLock inner(&b);
      },
      "lock-rank violation: acquiring 'shard-b'.*while holding 'shard-a'");
}

TEST(LockRankDeathTest, RecursiveAcquisitionDies) {
  SKIP_WITHOUT_RANK_CHECKS();
  Mutex mu("recursive-victim", LockRank::kRouterShard);
  EXPECT_DEATH(
      {
        MutexLock outer(&mu);
        mu.Lock();  // would self-deadlock; the checker aborts first
      },
      "lock-rank: recursive acquisition of 'recursive-victim'");
}

TEST(LockRankDeathTest, UnheldReleaseDies) {
  SKIP_WITHOUT_RANK_CHECKS();
  Mutex mu("never-locked", LockRank::kRouterShard);
  EXPECT_DEATH(mu.Unlock(),
               "lock-rank: releasing 'never-locked' which this thread does "
               "not hold");
}

TEST(LockRankDeathTest, PostingUnderALockDiesAtConcurrencyOne) {
  SKIP_WITHOUT_RANK_CHECKS();
  // At one lane Post() runs the task inline in the caller — under the
  // caller's locks. Rank ordering cannot see this (no executor mutex is
  // touched); the task-entry AssertNoneHeld catches it.
  EXPECT_DEATH(
      {
        Executor exec(1);
        Mutex mu("service-lock", LockRank::kRouterShard);
        MutexLock lock(&mu);
        exec.Post([] {});
      },
      "lock-rank: an executor task must run with no checked locks held");
}

TEST(LockRankDeathTest, FiberParkingUnderALockDies) {
  SKIP_WITHOUT_RANK_CHECKS();
  // A parked continuation may resume on another OS thread; the held-lock
  // stack is thread-local, so parking with a lock held must abort.
  EXPECT_DEATH(
      {
        std::unique_ptr<Fiber> fiber;
        Mutex mu("parked-lock", LockRank::kRouterShard);
        fiber = std::make_unique<Fiber>([&] {
          MutexLock lock(&mu);
          fiber->Yield();
        });
        fiber->Resume();
      },
      "lock-rank: a parking fiber must run with no checked locks held");
}

TEST(LockRankDeathTest, AssertHeldCountAtRankDiesOnMismatch) {
  SKIP_WITHOUT_RANK_CHECKS();
  EXPECT_DEATH(LockRankChecker::AssertHeldCountAtRank(
                   LockRank::kRouterShard, 1, "a DurableRouter commit hook"),
               "lock-rank: a DurableRouter commit hook must hold exactly 1 "
               "lock\\(s\\) of rank router-shard, holds 0");
}

// ---------------------------------------------------------------------------
// The commit-hook invariant (PR 9): a DurableRouter commit hook runs under
// exactly one router-shard mutex — never zero, never two.

/// Opens one pending session, drives it to its first pending round, and
/// returns (router is 1-lane synchronous, so Drain() surfaces the round).
SessionRouter::SessionId FirstPendingRound(SessionRouter* router,
                                           PendingRound* round) {
  SessionRouter::SessionId id = router->OpenPending(5);
  EXPECT_TRUE(router->SubmitLearn(id));
  router->Drain();
  std::vector<PendingRound> rounds = router->PendingRounds();
  EXPECT_EQ(rounds.size(), 1u);
  *round = rounds.front();
  return id;
}

TEST(LockRankTest, CommitHookRunsUnderExactlyOneShardMutex) {
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  PendingRound round;
  SessionRouter::SessionId id = FirstPendingRound(&router, &round);

  BitVec bits;
  BitSpan span = bits.Prepare(round.questions.size());
  for (size_t i = 0; i < round.questions.size(); ++i) span.Set(i, false);
  bool hook_ran = false;
  auto hook = [&]() -> bool {
    hook_ran = true;
    if (kLockRankChecksEnabled) {
      EXPECT_EQ(LockRankChecker::HeldCountAtRank(LockRank::kRouterShard), 1);
    }
    return true;
  };
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id, span,
                                  SessionRouter::CommitHook(hook)),
            ProvideOutcome::kResumed);
  EXPECT_TRUE(hook_ran);
}

TEST(LockRankDeathTest, CommitHookGrabbingASecondShardMutexDies) {
  SKIP_WITHOUT_RANK_CHECKS();
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  PendingRound round;
  SessionRouter::SessionId id = FirstPendingRound(&router, &round);

  BitVec bits;
  BitSpan span = bits.Prepare(round.questions.size());
  for (size_t i = 0; i < round.questions.size(); ++i) span.Set(i, false);
  Mutex second("second-router-shard", LockRank::kRouterShard);
  auto hook = [&]() -> bool {
    MutexLock cross_shard(&second);  // same rank as the held shard mutex
    return true;
  };
  EXPECT_DEATH(
      router.ProvideAnswers(id, round.round_id, span,
                            SessionRouter::CommitHook(hook)),
      "lock-rank violation: acquiring 'second-router-shard'.*"
      "while holding 'router-shard'");
}

// ---------------------------------------------------------------------------
// Positive stress: the real lock chain, walked concurrently, stays silent.

TEST(LockRankTest, RankCleanChainStress) {
  // The deepest legitimate chain in the tree below a shared low-ranked
  // outer lock, one local replica per thread plus shared leaves, hammered
  // from several threads at once: the checker must stay silent and the
  // per-thread stacks must balance.
  Mutex outer("stress-outer", LockRank::kExecutor);
  Mutex wal("stress-wal", LockRank::kWalShard);
  Mutex fs("stress-fs", LockRank::kFs);
  Mutex memo("stress-memo", LockRank::kMemo);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Mutex shard("stress-shard", LockRank::kRouterShard);
      for (int i = 0; i < kIters; ++i) {
        MutexLock a(&outer);
        MutexLock b(&shard);
        MutexLock c(&wal);
        MutexLock d(&fs);
        MutexLock e(&memo);
      }
      EXPECT_EQ(LockRankChecker::HeldCount(), 0);
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(LockRankTest, TryLockParticipatesInRankTracking) {
  Mutex mu("trylock-mutex", LockRank::kRouterShard);
  ASSERT_TRUE(mu.TryLock());
  if (kLockRankChecksEnabled) {
    EXPECT_EQ(LockRankChecker::HeldCount(), 1);
  }
  mu.Unlock();
  EXPECT_EQ(LockRankChecker::HeldCount(), 0);
}

}  // namespace
}  // namespace qhorn

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Death-test children re-exec through threaded code (executor, fiber);
  // the threadsafe style forks from a clean re-exec instead of the
  // already-threaded parent.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  return RUN_ALL_TESTS();
}
