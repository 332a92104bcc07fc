// ShardedRouter — the N-shard facade over SessionRouter — plus the two
// concurrency structures PR 9 slid underneath it: the striped
// CompiledQueryCache every shard shares and the lock-free MPSC
// pending-round drain. Also covers the parked-fiber cold-stack trim.
//
// The load-bearing property is the facade contract: a session's
// observables depend only on its own job and answer sequence, never on
// the shard count — a 1-shard facade is bit-identical (ids included) to a
// bare SessionRouter, and 2/8-shard runs produce fingerprints equal to
// the 1-shard run session for session. The lock-free poll is raced
// against live suspensions/resumes under TSan.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/oracle.h"
#include "src/session/router.h"
#include "src/session/sharded_router.h"
#include "src/util/bit_span.h"
#include "src/util/fiber.h"
#include "src/util/mpsc.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// Shared drive helper: verification fleets over the pending protocol.

/// Opens `count` pending sessions, submits one verification of `target`
/// to each, answers every surfaced round from ground truth, and returns
/// the per-session fingerprints in open order. Templated so the same
/// driver runs a bare SessionRouter and the facade.
template <typename RouterT>
std::vector<std::string> DriveVerifyFleet(
    RouterT& router, const Query& target, int count,
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
// Facade equivalence.

TEST(ShardedRouterTest, OneShardIsBitIdenticalToBareRouterIdsIncluded) {
  const Query target = TestTarget();
  SessionRouter::Options bopts;
  bopts.threads = 1;
  SessionRouter bare(bopts);
  std::vector<int64_t> bare_ids;
  std::vector<std::string> bare_prints =
      DriveVerifyFleet(bare, target, 12, &bare_ids);

  ShardedRouter::Options sopts;
  sopts.shards = 1;
  sopts.threads = 1;
  ShardedRouter facade(sopts);
  std::vector<int64_t> facade_ids;
  std::vector<std::string> facade_prints =
      DriveVerifyFleet(facade, target, 12, &facade_ids);

  // At shards == 1 the id encoding is the identity: same ids, same
  // rounds, same fingerprints — a drop-in replacement, byte for byte.
  EXPECT_EQ(facade_ids, bare_ids);
  EXPECT_EQ(facade_prints, bare_prints);
}

TEST(ShardedRouterTest, FingerprintsBitIdenticalAcrossShardCounts) {
  const Query target = TestTarget();
  ShardedRouter::Options base;
  base.shards = 1;
  base.threads = 1;
  ShardedRouter one(base);
  std::vector<std::string> reference = DriveVerifyFleet(one, target, 16);

  for (int shards : {2, 8}) {
    ShardedRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 4;
    ShardedRouter router(sopts);
    std::vector<std::string> prints = DriveVerifyFleet(router, target, 16);
    ASSERT_EQ(prints.size(), reference.size());
    for (size_t i = 0; i < prints.size(); ++i) {
      EXPECT_EQ(prints[i], reference[i])
          << "session " << i << " diverged at " << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Id encoding and garbage tolerance.

TEST(ShardedRouterTest, PinnedOpensLandOnTheirShardAndGarbageIdsBounce) {
  ShardedRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 1;
  ShardedRouter router(sopts);

  std::set<int64_t> seen;
  for (int s = 0; s < 4; ++s) {
    for (int k = 0; k < 3; ++k) {
      int64_t id = router.OpenPendingOnShard(s, 3);
      EXPECT_EQ(router.ShardOf(id), s);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate external id " << id;
      EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    }
  }

  // Garbage ids: zero, negative, an encoding whose internal part is zero
  // (external < shards), and a well-formed encoding nobody opened. All
  // rejected without a crash.
  for (int64_t garbage : {int64_t{0}, int64_t{-7}, int64_t{3}, int64_t{4004}}) {
    EXPECT_EQ(router.status(garbage), std::nullopt) << garbage;
    EXPECT_FALSE(router.Close(garbage)) << garbage;
    EXPECT_EQ(router.suspensions(garbage), -1) << garbage;
    BitVec bits;
    EXPECT_EQ(router.ProvideAnswers(garbage, 0, bits.Prepare(1)),
              ProvideOutcome::kUnknownSession)
        << garbage;
  }
}

TEST(ShardedRouterTest, PendingRoundsMergeCarriesExternalIdsSorted) {
  const Query target = TestTarget();
  ShardedRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  ShardedRouter router(sopts);

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
    // The per-id view speaks the same external ids as the merged poll.
    std::optional<PendingRound> single =
        router.pending_round(rounds[i].session_id);
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->session_id, rounds[i].session_id);
    EXPECT_EQ(single->round_id, rounds[i].round_id);
  }
  for (int64_t id : ids) router.Close(id);
}

TEST(ShardedRouterTest, MergedPollEqualsTheSortedConcatenation) {
  // The facade merges per-shard lists instead of sorting; the result must
  // equal every awaiting round gathered session by session in id order —
  // across shard counts, and across polls that merge retained nodes with
  // freshly announced ones.
  const Query target = TestTarget();
  QueryOracle truth(target);
  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ShardedRouter::Options sopts;
    sopts.shards = shards;
    sopts.threads = 2;
    ShardedRouter router(sopts);
    std::vector<int64_t> ids;
    for (int i = 0; i < 21; ++i) {
      int64_t id = router.OpenPending(target.n());
      ASSERT_TRUE(router.SubmitVerify(id, target));
      ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    BitVec bits;
    for (int poll = 0; poll < 4; ++poll) {
      router.Drain();
      std::vector<PendingRound> merged = router.PendingRounds();
      std::vector<PendingRound> expected;
      for (int64_t id : ids) {
        std::optional<PendingRound> round = router.pending_round(id);
        if (round.has_value()) expected.push_back(std::move(*round));
      }
      ASSERT_EQ(merged.size(), expected.size()) << "poll " << poll;
      for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].session_id, expected[i].session_id);
        EXPECT_EQ(merged[i].round_id, expected[i].round_id);
        EXPECT_EQ(merged[i].questions, expected[i].questions);
      }
      // Answer every other round: the next poll sees both kinds of node.
      for (size_t i = 0; i < merged.size(); i += 2) {
        BitSpan span = bits.Prepare(merged[i].questions.size());
        truth.IsAnswerBatch(merged[i].questions, span);
        ASSERT_EQ(router.ProvideAnswers(merged[i].session_id,
                                        merged[i].round_id, span),
                  ProvideOutcome::kResumed);
      }
    }
    for (int64_t id : ids) router.Close(id);
  }
}

TEST(ShardedRouterTest, OutOfRangeSchemaSizesAreRefusedAtEveryLayer) {
  SessionRouter::Options bopts;
  bopts.threads = 1;
  SessionRouter bare(bopts);
  ShardedRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 1;
  ShardedRouter facade(sopts);
  for (int n : {0, -3, kMaxVars + 1}) {
    EXPECT_EQ(bare.OpenPending(n), 0) << n;
    EXPECT_EQ(facade.OpenPending(n), 0) << n;
    EXPECT_EQ(facade.OpenPendingOnShard(2, n), 0) << n;
  }
  EXPECT_EQ(bare.stats().sessions, 0) << "a refused open opens nothing";
  EXPECT_EQ(facade.stats().sessions, 0);
  EXPECT_EQ(bare.OpenPending(1), 1) << "refusals consume no id";
  EXPECT_GT(facade.OpenPendingOnShard(2, kMaxVars), 0);
}

TEST(ShardedRouterTest, StatsSumShardsButCountTheSharedCacheOnce) {
  const Query target = TestTarget();
  ShardedRouter::Options sopts;
  sopts.shards = 4;
  sopts.threads = 2;
  ShardedRouter router(sopts);
  for (int i = 0; i < 8; ++i) {
    int64_t id = router.OpenSimulated(target);
    ASSERT_TRUE(router.SubmitVerify(id, target));
  }
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 8);
  EXPECT_EQ(stats.verifies, 8);
  // All eight simulated opens share one compiled-query cache across the
  // four shards: one compile, seven hits — not 4× either number.
  EXPECT_EQ(stats.compiled_misses, 1);
  EXPECT_EQ(stats.compiled_hits, 7);
}

// ---------------------------------------------------------------------------
// The lock-free poll, raced against live suspensions and resumes (TSan).

TEST(ShardedRouterTest, LockFreePollRacesSuspensionsAndResumes) {
  const Query target = TestTarget();
  ShardedRouter::Options sopts;
  sopts.shards = 2;
  sopts.threads = 4;
  ShardedRouter router(sopts);

  std::atomic<bool> stop{false};
  // The racy poller: hammers PendingRounds with no synchronization
  // against the driver below. It may transiently miss a suspending round
  // or see one being answered; it must never crash, corrupt the retained
  // node set, or return a malformed round.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<PendingRound> rounds = router.PendingRounds();
      for (const PendingRound& round : rounds) {
        if (round.session_id <= 0) {
          ADD_FAILURE() << "malformed polled round id " << round.session_id;
          return;
        }
      }
    }
  });

  std::vector<std::string> prints = DriveVerifyFleet(router, target, 24);
  stop.store(true, std::memory_order_release);
  poller.join();

  // The drive loop itself used the lock-free poll; the sessions must all
  // have finished their verification exactly once.
  EXPECT_EQ(prints.size(), 24u);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.verifies, 24);
  EXPECT_GE(stats.suspensions, 24);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

TEST(ShardedRouterTest, MpscStackDeliversEveryPushAcrossThreads) {
  MpscStack<int> stack;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&stack, t] {
      for (int i = 0; i < kPerThread; ++i) {
        stack.Push(new MpscStack<int>::Node(t * kPerThread + i));
      }
    });
  }
  std::set<int> seen;
  // Consume concurrently with the producers, then drain the remainder.
  for (int spin = 0; spin < 10000 && seen.size() < kThreads * kPerThread;
       ++spin) {
    for (MpscStack<int>::Node* node = stack.PopAll(); node != nullptr;) {
      MpscStack<int>::Node* next = node->next;
      EXPECT_TRUE(seen.insert(node->value).second)
          << "value " << node->value << " delivered twice";
      delete node;
      node = next;
    }
  }
  for (auto& p : producers) p.join();
  for (MpscStack<int>::Node* node = stack.PopAll(); node != nullptr;) {
    MpscStack<int>::Node* next = node->next;
    EXPECT_TRUE(seen.insert(node->value).second);
    delete node;
    node = next;
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_TRUE(stack.Empty());
}

// ---------------------------------------------------------------------------
// Striped CompiledQueryCache under concurrent Get.

TEST(CompiledQueryCacheTest, StripedGetIsCoherentUnderConcurrentHammer) {
  CompiledQueryCache cache;
  constexpr int kDistinct = 16;
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 64;
  std::vector<Query> queries;
  for (int i = 0; i < kDistinct; ++i) {
    std::string body = "∃";
    for (int v = 1; v <= i + 1; ++v) body += "x" + std::to_string(v);
    queries.push_back(Query::Parse(body, kDistinct));
  }
  EvalOptions opts;
  std::vector<std::vector<std::shared_ptr<const CompiledQuery>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        got[static_cast<size_t>(t)].push_back(
            cache.Get(queries[static_cast<size_t>((i + t) % kDistinct)], opts));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Coherence: every thread's Get for one query must have returned the
  // same shared compiled form (first insert wins; losers adopt it).
  std::vector<const CompiledQuery*> canonical(kDistinct, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kGetsPerThread; ++i) {
      size_t q = static_cast<size_t>((i + t) % kDistinct);
      const CompiledQuery* p = got[static_cast<size_t>(t)][static_cast<size_t>(i)].get();
      if (canonical[q] == nullptr) canonical[q] = p;
      EXPECT_EQ(canonical[q], p) << "query " << q << " compiled twice visibly";
    }
  }
  // Counter accounting: every Get was a hit or a miss; racing first-time
  // compiles may each count a miss, but at least one per distinct key.
  const int64_t total = int64_t{kThreads} * kGetsPerThread;
  EXPECT_EQ(cache.hits() + cache.misses(), total);
  EXPECT_GE(cache.misses(), kDistinct);
  EXPECT_LE(cache.misses(), int64_t{kDistinct} * kThreads);
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
  ropts.resume_mode = ResumeMode::kFiber;
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
