// SessionRouter's lock shards (Options::shards) and the combined
// pending-round poll. Also covers the fiber switch (registers and
// floating-point modes across a resume on another thread) and the parked
// stack's resident bytes behind ServiceStats::snapshot_bytes.
//
// The load-bearing property is the sharding contract: a session's
// observables depend only on its own job and answer sequence, never on
// the shard count — 2- and 8-shard runs hand out the 1-shard run's ids
// and produce its fingerprints, session for session. The poll is raced
// against live suspensions/resumes under TSan.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>
#include <unistd.h>

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
// The fiber switch and the parked stack's residency.

size_t PageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

__attribute__((noinline)) int DeepTouch(int depth) {
  volatile char buf[4096];
  buf[0] = static_cast<char>(depth);
  buf[sizeof(buf) - 1] = 1;
  if (depth == 0) return buf[0];
  return DeepTouch(depth - 1) + buf[sizeof(buf) - 1];
}

#if defined(QHORN_FIBER_ASM_SWITCH)

}  // namespace
}  // namespace qhorn

// Loads rbx, rbp, r12-r15 with pattern + 0..5, calls fn(arg), and stores
// what those six registers hold when fn returns into out[0..5]; restores
// the caller's values before returning. Only assembly can pin the
// registers across a call, which is what the switch must preserve.
extern "C" void qhorn_test_call_with_callee_saved(void (*fn)(void*),
                                                  void* arg,
                                                  uint64_t pattern,
                                                  uint64_t* out);
asm(R"(
  .pushsection .text
  .type qhorn_test_call_with_callee_saved, @function
  .p2align 4
qhorn_test_call_with_callee_saved:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  pushq %rcx
  movq %rdi, %rax
  movq %rsi, %rdi
  movq %rdx, %rbx
  leaq 1(%rdx), %rbp
  leaq 2(%rdx), %r12
  leaq 3(%rdx), %r13
  leaq 4(%rdx), %r14
  leaq 5(%rdx), %r15
  callq *%rax
  popq %rcx
  movq %rbx, 0(%rcx)
  movq %rbp, 8(%rcx)
  movq %r12, 16(%rcx)
  movq %r13, 24(%rcx)
  movq %r14, 32(%rcx)
  movq %r15, 40(%rcx)
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size qhorn_test_call_with_callee_saved, .-qhorn_test_call_with_callee_saved
  .popsection
)");

namespace qhorn {
namespace {

// Rounding-control fields, with the sticky exception flags (which any
// arithmetic may set) masked out of the MXCSR.
uint32_t Mxcsr() {
  uint32_t v = 0;
  asm volatile("stmxcsr %0" : "=m"(v));
  return v & ~0x3Fu;
}
void SetMxcsr(uint32_t v) { asm volatile("ldmxcsr %0" : : "m"(v)); }
uint16_t FpuCw() {
  uint16_t v = 0;
  asm volatile("fnstcw %0" : "=m"(v));
  return v;
}
void SetFpuCw(uint16_t v) { asm volatile("fldcw %0" : : "m"(v)); }

constexpr uint32_t kMxcsrTowardZero = 0x1F80 | 0x6000;
constexpr uint32_t kMxcsrUpward = 0x1F80 | 0x4000;
constexpr uint16_t kFpuCwTowardZero = 0x037F | 0x0C00;
constexpr uint16_t kFpuCwUpward = 0x037F | 0x0800;

void ExpectPattern(const uint64_t* out, uint64_t pattern, const char* who) {
  for (uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(out[i], pattern + i) << who << ": callee-saved register " << i;
  }
}

TEST(FiberSwitchTest, CalleeSavedStateSurvivesAResumeOnAnotherThread) {
  constexpr uint64_t kFiberPattern = 0x5a5a000000000010;
  constexpr uint64_t kHostPattern = 0x3c3c000000000020;
  constexpr uint64_t kOtherHostPattern = 0x7e7e000000000030;
  const uint32_t host_mxcsr = Mxcsr();
  const uint16_t host_cw = FpuCw();
  ASSERT_NE(host_mxcsr, kMxcsrTowardZero);
  ASSERT_NE(host_cw, kFpuCwTowardZero);

  Fiber* self = nullptr;
  bool finished_body = false;
  Fiber fiber([&] {
    // A floating-point mode set inside the fiber is the fiber's own.
    SetMxcsr(kMxcsrTowardZero);
    SetFpuCw(kFpuCwTowardZero);
    uint64_t out[6] = {};
    qhorn_test_call_with_callee_saved(
        [](void* f) { static_cast<Fiber*>(f)->Yield(); }, self,
        kFiberPattern, out);
    // Resumed on the other thread, whose registers and modes differ.
    ExpectPattern(out, kFiberPattern, "fiber");
    EXPECT_EQ(Mxcsr(), kMxcsrTowardZero);
    EXPECT_EQ(FpuCw(), kFpuCwTowardZero);
    finished_body = true;
  });
  self = &fiber;
  auto resume = [](void* f) { static_cast<Fiber*>(f)->Resume(); };

  uint64_t host_out[6] = {};
  qhorn_test_call_with_callee_saved(resume, &fiber, kHostPattern, host_out);
  ASSERT_FALSE(fiber.finished());
  ExpectPattern(host_out, kHostPattern, "host");
  EXPECT_EQ(Mxcsr(), host_mxcsr) << "the fiber's rounding mode leaked";
  EXPECT_EQ(FpuCw(), host_cw) << "the fiber's rounding mode leaked";

  std::thread other([&] {
    SetMxcsr(kMxcsrUpward);
    SetFpuCw(kFpuCwUpward);
    uint64_t out[6] = {};
    qhorn_test_call_with_callee_saved(resume, &fiber, kOtherHostPattern, out);
    ExpectPattern(out, kOtherHostPattern, "other host");
    EXPECT_EQ(Mxcsr(), kMxcsrUpward);
    EXPECT_EQ(FpuCw(), kFpuCwUpward);
  });
  other.join();
  EXPECT_TRUE(fiber.finished());
  EXPECT_TRUE(finished_body);
}

#endif  // QHORN_FIBER_ASM_SWITCH

TEST(FiberSwitchTest, ResidentBytesCountsTouchedStackPagesOnly) {
  Fiber* self = nullptr;
  Fiber fiber([&] { self->Yield(); });
  self = &fiber;
  EXPECT_EQ(fiber.ResidentBytes(), 0u) << "nothing has touched the stack";
  fiber.Resume();
  ASSERT_FALSE(fiber.finished());
  const size_t resident = fiber.ResidentBytes();
  EXPECT_GT(resident, 0u);
  EXPECT_EQ(resident % PageBytes(), 0u);
  // A shallow park touches a few pages of the 512 KiB usable stack.
  EXPECT_LT(resident, Fiber::kDefaultStackBytes / 8);
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
}

TEST(FiberSwitchTest, DeepExcursionStaysResidentAfterAShallowPark) {
  // Nothing trims a parked stack: pages a deep call dirtied and popped
  // before the park stay resident, and counted, until the fiber is freed.
  int deep_sum = 0;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    deep_sum += DeepTouch(40);  // dirty ~160 KiB of stack, then pop it all
    self->Yield();              // park shallow
    deep_sum += DeepTouch(40);
  });
  self = &fiber;
  fiber.Resume();
  ASSERT_FALSE(fiber.finished());
  EXPECT_GE(fiber.ResidentBytes(), size_t{40} * 4096);
  EXPECT_LE(fiber.ResidentBytes(), Fiber::kDefaultStackBytes);
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(deep_sum, 2 * DeepTouch(40));
}

TEST(FiberSwitchTest, SnapshotBytesSumTheParkedStacksResidentPages) {
  const Query target = TestTarget();
  SessionRouter::Options ropts;
  ropts.threads = 1;
  SessionRouter router(ropts);
  const int64_t first = router.OpenPending(target.n());
  ASSERT_TRUE(router.SubmitVerify(first, target));
  router.Drain();
  ASSERT_EQ(router.status(first), SessionStatus::kAwaitingUser);
  const int64_t one = router.stats().snapshot_bytes;
  // Whole resident pages of the usable stack: the guard page below it
  // and the untouched rest of the mapping do not count.
  EXPECT_GT(one, 0);
  EXPECT_EQ(one % static_cast<int64_t>(PageBytes()), 0);
  EXPECT_LT(one, static_cast<int64_t>(Fiber::kDefaultStackBytes / 8));

  // The figure is a sum over the awaiting sessions' stacks, and a parked
  // stack's residency holds still while it waits.
  const int64_t second = router.OpenPending(target.n());
  ASSERT_TRUE(router.SubmitVerify(second, target));
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 2);
  const int64_t both = stats.snapshot_bytes;
  router.Close(first);
  router.Drain();
  stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 1);
  EXPECT_GT(stats.snapshot_bytes, 0);
  EXPECT_EQ(both, one + stats.snapshot_bytes);

  router.Close(second);
  router.Drain();
  stats = router.stats();
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_EQ(stats.snapshot_bytes, 0);
}

}  // namespace
}  // namespace qhorn
