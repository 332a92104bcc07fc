// SessionRouter's lock shards (Options::shards) and the combined
// pending-round poll. Also covers the parked-fiber cold-stack trim.
//
// The load-bearing property is the sharding contract: a session's
// observables depend only on its own job and answer sequence, never on
// the shard count — 2- and 8-shard runs hand out the 1-shard run's ids
// and produce its fingerprints, session for session. The poll is raced
// against live suspensions/resumes under TSan.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/oracle.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/fiber.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// Shared drive helper: verification fleets over the pending protocol.

/// Opens `count` pending sessions, submits one verification of `target`
/// to each, answers every surfaced round from ground truth, and returns
/// the per-session fingerprints in open order.
std::vector<std::string> DriveVerifyFleet(
    SessionRouter& router, const Query& target, int count,
    std::vector<int64_t>* ids_out = nullptr) {
  QueryOracle truth(target);
  std::vector<int64_t> ids;
  for (int i = 0; i < count; ++i) {
    int64_t id = router.OpenPending(target.n());
    EXPECT_TRUE(router.SubmitVerify(id, target));
    ids.push_back(id);
  }
  BitVec bits;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    for (const PendingRound& round : rounds) {
      BitSpan span = bits.Prepare(round.questions.size());
      truth.IsAnswerBatch(round.questions, span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  }
  std::vector<std::string> prints;
  prints.reserve(ids.size());
  for (int64_t id : ids) {
    prints.push_back(SessionFingerprint(router.session(id)));
  }
  if (ids_out != nullptr) *ids_out = ids;
  return prints;
}

Query TestTarget() { return Query::Parse("∀x1x2→x4 ∃x3", 4); }

// ---------------------------------------------------------------------------
// Shard-count equivalence.

TEST(RouterShardsTest, FingerprintsBitIdenticalAcrossShardCounts) {
  const Query target = TestTarget();
  SessionRouter::Options base;
  base.threads = 1;
  SessionRouter one(base);
  ASSERT_EQ(base.shards, 1) << "one shard is the default";
  std::vector<int64_t> reference_ids;
  std::vector<std::string> reference =
      DriveVerifyFleet(one, target, 16, &reference_ids);
  EXPECT_EQ(reference_ids.front(), 1);
  EXPECT_EQ(reference_ids.back(), 16) << "opens count up from 1";

  for (int shards : {2, 8}) {
    SessionRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 4;
    SessionRouter router(sopts);
    std::vector<int64_t> ids;
    std::vector<std::string> prints =
        DriveVerifyFleet(router, target, 16, &ids);
    // One id counter for the whole router: the shard count changes which
    // mutex guards a session, never its id.
    EXPECT_EQ(ids, reference_ids) << shards << " shards";
    ASSERT_EQ(prints.size(), reference.size());
    for (size_t i = 0; i < prints.size(); ++i) {
      EXPECT_EQ(prints[i], reference[i])
          << "session " << i << " diverged at " << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Caller-chosen ids and garbage tolerance.

TEST(RouterShardsTest, OneShardOpensAtChosenIdsAndAssignsAroundThem) {
  const Query target = TestTarget();
  SessionRouter::Options bopts;
  bopts.threads = 1;
  SessionRouter router(bopts);

  EXPECT_EQ(router.OpenPendingAt(2, 3), 2);
  EXPECT_EQ(router.OpenPendingAt(5, target.n()), 5);
  EXPECT_EQ(router.OpenPendingAt(6, target.n()), 6);
  // Refused, opening nothing: ids ≤ 0, ids in use, and an out-of-range n.
  for (int64_t bad : {int64_t{0}, int64_t{-4}, int64_t{2}, int64_t{5},
                      int64_t{6}}) {
    EXPECT_EQ(router.OpenPendingAt(bad, 3), 0) << bad;
    EXPECT_EQ(router.OpenPendingAt(bad, target.n()), 0) << bad;
  }
  EXPECT_EQ(router.OpenPendingAt(9, 0), 0);
  EXPECT_EQ(router.OpenPendingAt(9, kMaxVars + 1), 0);
  EXPECT_EQ(router.stats().sessions, 3);

  // Assigned ids skip the chosen ones.
  std::vector<int64_t> assigned;
  for (int i = 0; i < 4; ++i) assigned.push_back(router.OpenPending(3));
  EXPECT_EQ(assigned, (std::vector<int64_t>{1, 3, 4, 7}));
  EXPECT_EQ(router.OpenPendingAt(7, 3), 0) << "an assigned id is in use";
  EXPECT_EQ(router.stats().sessions, 7);
}

TEST(RouterShardsTest, PinnedOpensAssignAroundThemAndGarbageIdsBounce) {
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 1;
  SessionRouter router(sopts);

  // Session e lives in shard e mod 4, under the id e itself.
  const std::vector<int64_t> chosen = {5, 6, 7, 8, 13, 22};
  for (int64_t id : chosen) {
    EXPECT_EQ(router.OpenPendingAt(id, 3), id);
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  }
  for (int64_t bad : {int64_t{0}, int64_t{-4}, int64_t{5}, int64_t{22}}) {
    EXPECT_EQ(router.OpenPendingAt(bad, 3), 0) << bad;
  }
  EXPECT_EQ(router.stats().sessions, static_cast<int64_t>(chosen.size()));

  // The router's own opens skip every chosen id, whichever shard holds it.
  std::set<int64_t> seen(chosen.begin(), chosen.end());
  std::set<int64_t> assigned;
  for (int i = 0; i < 8; ++i) {
    int64_t id = router.OpenPending(3);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    assigned.insert(id);
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  }
  EXPECT_EQ(assigned, (std::set<int64_t>{1, 2, 3, 4, 9, 10, 11, 12}));

  // Garbage ids: zero, negative, and ids nobody opened. All rejected
  // without a crash, whichever shard they map to.
  for (int64_t garbage :
       {int64_t{0}, int64_t{-7}, int64_t{14}, int64_t{4004}}) {
    EXPECT_EQ(router.status(garbage), std::nullopt) << garbage;
    EXPECT_FALSE(router.Close(garbage)) << garbage;
    EXPECT_EQ(router.suspensions(garbage), -1) << garbage;
    EXPECT_EQ(router.pending_round(garbage), std::nullopt) << garbage;
    BitVec bits;
    EXPECT_EQ(router.ProvideAnswers(garbage, 0, bits.Prepare(1)),
              ProvideOutcome::kUnknownSession)
        << garbage;
  }
}

TEST(RouterShardsTest, PendingRoundsMergeShardsSortedById) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  SessionRouter router(sopts);

  std::vector<int64_t> ids;
  for (int i = 0; i < 12; ++i) {
    int64_t id = router.OpenPending(target.n());
    ASSERT_TRUE(router.SubmitVerify(id, target));
    ids.push_back(id);
  }
  router.Drain();
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), ids.size());
  std::set<int64_t> expected(ids.begin(), ids.end());
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(expected.count(rounds[i].session_id), 1u);
    if (i > 0) {
      EXPECT_LT(rounds[i - 1].session_id, rounds[i].session_id);
    }
    // The per-id view speaks the same ids as the poll.
    std::optional<PendingRound> single =
        router.pending_round(rounds[i].session_id);
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->session_id, rounds[i].session_id);
    EXPECT_EQ(single->round_id, rounds[i].round_id);
  }
  for (int64_t id : ids) router.Close(id);
}

TEST(RouterShardsTest, MergedPollEqualsTheSortedConcatenation) {
  // The poll concatenates the per-shard vectors and sorts them once; each
  // poll must come back in session-id order, and the rounds delivered so
  // far and not yet answered must equal every awaiting round gathered
  // session by session in id order — across shard counts, and across
  // polls that deliver only the rounds announced since the last one.
  const Query target = TestTarget();
  QueryOracle truth(target);
  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    SessionRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 2;
    SessionRouter router(sopts);
    std::vector<int64_t> ids;
    for (int i = 0; i < 21; ++i) {
      int64_t id = router.OpenPending(target.n());
      ASSERT_TRUE(router.SubmitVerify(id, target));
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    BitVec bits;
    std::map<int64_t, PendingRound> delivered;  // by session id
    for (int poll = 0; poll < 4; ++poll) {
      router.Drain();
      std::vector<PendingRound> merged = router.PendingRounds();
      for (size_t i = 0; i < merged.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(merged[i - 1].session_id, merged[i].session_id);
        }
        EXPECT_TRUE(delivered.emplace(merged[i].session_id, merged[i]).second)
            << "a session's round was delivered while one was outstanding";
      }
      std::vector<PendingRound> expected;
      for (int64_t id : ids) {
        std::optional<PendingRound> round = router.pending_round(id);
        if (round.has_value()) expected.push_back(std::move(*round));
      }
      ASSERT_EQ(delivered.size(), expected.size()) << "poll " << poll;
      size_t i = 0;
      for (const auto& [id, round] : delivered) {
        EXPECT_EQ(round.session_id, expected[i].session_id);
        EXPECT_EQ(round.round_id, expected[i].round_id);
        EXPECT_EQ(round.questions, expected[i].questions);
        ++i;
      }
      // Answer every other round: the next poll delivers the answered
      // sessions' new rounds, while the others stay outstanding.
      for (auto it = delivered.begin(); it != delivered.end();) {
        const PendingRound& round = it->second;
        BitSpan span = bits.Prepare(round.questions.size());
        truth.IsAnswerBatch(round.questions, span);
        ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id,
                                        span),
                  ProvideOutcome::kResumed);
        it = delivered.erase(it);
        if (it != delivered.end()) ++it;
      }
    }
    for (int64_t id : ids) router.Close(id);
  }
}

TEST(RouterShardsTest, OutOfRangeSchemaSizesAreRefusedAtEveryShardCount) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    SessionRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 1;
    SessionRouter router(sopts);
    for (int n : {0, -3, kMaxVars + 1}) {
      EXPECT_EQ(router.OpenPending(n), 0) << n;
      EXPECT_EQ(router.OpenPendingAt(6, n), 0) << n;
    }
    EXPECT_EQ(router.stats().sessions, 0) << "a refused open opens nothing";
    EXPECT_EQ(router.OpenPending(1), 1) << "refusals consume no id";
    EXPECT_EQ(router.OpenPendingAt(6, kMaxVars), 6);
  }
}

TEST(RouterShardsTest, StatsSumShards) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  SessionRouter router(sopts);
  DriveVerifyFleet(router, target, 8);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 8);
  EXPECT_EQ(stats.verifies, 8);
  // Each of the four shards hosts two of the sessions; stats() sums
  // them, and the summed rounds are the sessions' own.
  int64_t rounds = 0;
  for (int64_t id = 1; id <= 8; ++id) rounds += router.session(id).rounds();
  EXPECT_EQ(stats.rounds, rounds);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

// ---------------------------------------------------------------------------
// The poll, raced against live suspensions and resumes (TSan).

TEST(RouterShardsTest, PollRacesSuspensionsAndResumes) {
  const Query target = TestTarget();
  SessionRouter::Options sopts;
  sopts.shards = 2;
  sopts.threads = 4;
  SessionRouter router(sopts);
  std::vector<int64_t> ids;
  for (int i = 0; i < 24; ++i) {
    int64_t id = router.OpenPending(target.n());
    ASSERT_TRUE(router.SubmitVerify(id, target));
    ids.push_back(id);
  }

  // Two pollers, each answering whatever its own poll delivered: the racy
  // one polls with no synchronization against the lanes, which suspend
  // and resume sessions under it; the driver drains between polls. Each
  // round reaches exactly one of them, so every answer must be accepted,
  // and no poll may return a malformed round. Each thread has its own
  // ground truth (an oracle is single-threaded; both answer alike).
  auto answer = [&router](QueryOracle& truth, BitVec& bits,
                          const std::vector<PendingRound>& rounds) {
    for (const PendingRound& round : rounds) {
      if (round.session_id <= 0) {
        ADD_FAILURE() << "malformed polled round id " << round.session_id;
        continue;
      }
      BitSpan span = bits.Prepare(round.questions.size());
      truth.IsAnswerBatch(round.questions, span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  };
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    QueryOracle truth(target);
    BitVec bits;
    while (!stop.load(std::memory_order_acquire)) {
      answer(truth, bits, router.PendingRounds());
    }
  });
  QueryOracle truth(target);
  BitVec bits;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    router.Drain();
    answer(truth, bits, router.PendingRounds());
    bool all_idle = true;
    for (int64_t id : ids) {
      all_idle = all_idle && router.status(id) == SessionStatus::kIdle;
    }
    if (all_idle) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "a session never finished: a round was not delivered";
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  poller.join();

  // The sessions must all have finished their verification exactly once.
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.verifies, 24);
  EXPECT_GE(stats.suspensions, 24);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

// ---------------------------------------------------------------------------
// Parked-fiber cold-stack trim.

#if defined(__linux__) && defined(__x86_64__)

__attribute__((noinline)) int DeepTouch(int depth) {
  volatile char buf[4096];
  buf[0] = static_cast<char>(depth);
  buf[sizeof(buf) - 1] = 1;
  if (depth == 0) return buf[0];
  return DeepTouch(depth - 1) + buf[sizeof(buf) - 1];
}

TEST(FiberTrimTest, TrimReleasesColdPagesAndTheFiberStillResumes) {
  int deep_sum = 0;
  bool finished_cleanly = false;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    deep_sum += DeepTouch(40);  // dirty ~160 KiB of stack, then pop it all
    self->Yield();              // park shallow
    deep_sum += DeepTouch(40);  // re-dirty the trimmed region after resume
    finished_cleanly = true;
  });
  self = &fiber;
  fiber.Resume();  // runs to the Yield
  ASSERT_FALSE(fiber.finished());

  size_t resident = fiber.TrimColdStack();
  // Parked at shallow depth, nearly the whole 512 KiB stack below the
  // parked frame is cold; the trim must reclaim at least the ~160 KiB the
  // deep recursion dirtied.
  EXPECT_GT(fiber.trimmed_bytes(), size_t{160} * 1024);
  EXPECT_EQ(resident, fiber.stack_bytes() - fiber.trimmed_bytes());
  EXPECT_LT(resident, fiber.stack_bytes());

  // The proof that the trim was safe: the resumed continuation recurses
  // straight back through the madvised region and completes.
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_TRUE(finished_cleanly);
  EXPECT_EQ(fiber.trimmed_bytes(), 0u);  // reset on resume
}

TEST(FiberTrimTest, RouterReportsTrimmedResidencyForParkedSessions) {
  const Query target = TestTarget();
  SessionRouter::Options ropts;
  ropts.threads = 1;
  SessionRouter router(ropts);
  int64_t id = router.OpenPending(target.n());
  ASSERT_TRUE(router.SubmitVerify(id, target));
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 1);
  // Resident, not mapped: more than zero (the parked frame itself) but
  // well under the 512 KiB the pre-trim accounting used to report.
  EXPECT_GT(stats.snapshot_bytes, 0);
  EXPECT_LT(stats.snapshot_bytes, 256 * 1024);
  router.Close(id);
}

#endif  // __linux__ && __x86_64__

}  // namespace
}  // namespace qhorn
