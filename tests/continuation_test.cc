// Pending-round session continuations: the PendingOracle backend, the
// router's kIdle/kRunning/kAwaitingUser state machine, the
// PendingRounds()/ProvideAnswers embedding-server protocol, and the
// determinism contract of parked-fiber resumption.
//
// The load-bearing properties:
//   * a session blocked on a real user holds no lane (another session can
//     run on a one-lane router while the first waits),
//   * a resume switches back into the parked frame, so after the final
//     resume every observable is bit-identical to a synchronous run over
//     the same answers,
//   * malformed ProvideAnswers calls (stale round id, wrong answer count,
//     unknown/closed session) are rejected without touching the session.
//
// Runs under the tsan preset in CI (ctest label: continuation).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/learn/pac.h"
#include "src/oracle/pending.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "src/util/suspend.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

// ---------------------------------------------------------------------------
// PendingOracle unit behaviour.

TEST(PendingOracleTest, NonEmptyRoundRecordsQuestionsAndSuspends) {
  PendingOracle oracle;
  Rng rng(1);
  std::vector<TupleSet> questions = {RandomObject(4, rng, 3),
                                     RandomObject(4, rng, 3)};
  // A park hook that cancels at once: each round parks on the caller's
  // questions and unwinds with JobSuspended, as a cancelled parked fiber
  // does.
  std::vector<std::span<const TupleSet>> parked;
  oracle.InstallYieldHook([&] {
    parked.push_back(oracle.parked_questions());
    oracle.RequestCancel();
  });
  BitVec bits;
  EXPECT_THROW(oracle.IsAnswerBatch(questions, bits.Prepare(2)), JobSuspended);
  EXPECT_TRUE(oracle.parked_questions().empty()) << "the frame is gone";

  // The single-question path is a one-question round over the caller's
  // object.
  EXPECT_THROW(oracle.IsAnswer(questions[1]), JobSuspended);
  ASSERT_EQ(parked.size(), 2u);
  EXPECT_EQ(parked[0].data(), questions.data()) << "parked without a copy";
  EXPECT_EQ(parked[0].size(), 2u);
  EXPECT_EQ(parked[1].data(), &questions[1]);
  EXPECT_EQ(parked[1].size(), 1u);
}

TEST(PendingOracleTest, AnswersAreWrittenIntoTheCallersBitSpan) {
  PendingOracle oracle;
  Rng rng(2);
  std::vector<TupleSet> questions = {RandomObject(4, rng, 3),
                                     RandomObject(4, rng, 3),
                                     RandomObject(4, rng, 3)};
  const std::vector<bool> labels = {true, false, true};
  // The user labels the parked round's i-th question with labels[i].
  oracle.InstallYieldHook([&] {
    BitVec user;
    BitSpan span = user.Prepare(oracle.parked_questions().size());
    for (size_t i = 0; i < span.size(); ++i) span.Set(i, labels[i]);
    oracle.Answer(span);
  });
  // The caller's span sits at an offset inside its words, pre-filled with
  // the opposite labels: every bit must come from the answer.
  BitVec caller;
  BitSpan whole = caller.Prepare(labels.size() + 5);
  for (size_t i = 0; i < whole.size(); ++i) whole.Set(i, true);
  BitSpan answers = whole.Subspan(5);
  for (size_t i = 0; i < labels.size(); ++i) answers.Set(i, !labels[i]);
  oracle.IsAnswerBatch(questions, answers);
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(answers.Get(i), labels[i]) << i;
  }
  for (size_t i = 0; i < 5; ++i) EXPECT_TRUE(whole.Get(i)) << i;
  EXPECT_TRUE(oracle.parked_questions().empty());

  // And through the single-question path.
  EXPECT_TRUE(oracle.IsAnswer(questions[1]));
}

TEST(PendingOracleTest, EmptyRoundIsANoOpNotASuspension) {
  PendingOracle oracle;
  int parks = 0;
  oracle.InstallYieldHook([&parks] { ++parks; });
  BitVec bits;
  EXPECT_NO_THROW(oracle.IsAnswerBatch({}, bits.Prepare(0)));
  EXPECT_EQ(parks, 0);
  EXPECT_TRUE(oracle.parked_questions().empty());
}

TEST(PendingOracleDeathTest, AResumeWithoutAnswersOrCancelFails) {
  PendingOracle oracle;
  oracle.InstallYieldHook([] {});  // resumes with neither
  Rng rng(3);
  std::vector<TupleSet> questions = {RandomObject(4, rng, 3)};
  BitVec bits;
  EXPECT_DEATH(oracle.IsAnswerBatch(questions, bits.Prepare(1)),
               "without answers");
}

// ---------------------------------------------------------------------------
// Driving a pending session to completion: the embedding-server loop.

/// Answers every pending round from the per-session ground truth until no
/// session is awaiting; returns the number of rounds answered.
int64_t AnswerAllPending(
    SessionRouter& router,
    const std::map<SessionRouter::SessionId, QueryOracle*>& truths) {
  int64_t answered = 0;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) return answered;
    for (PendingRound& round : rounds) {
      QueryOracle* truth = truths.at(round.session_id);
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth->IsAnswerBatch(round.questions, span);
      EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
      ++answered;
    }
  }
}

/// Answers `round` from `truth`, expecting the session to resume.
void AnswerRound(SessionRouter& router, QueryOracle& truth,
                 const PendingRound& round) {
  BitVec bits;
  BitSpan span = bits.Prepare(round.questions.size());
  truth.IsAnswerBatch(round.questions, span);
  ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
            ProvideOutcome::kResumed);
}

bool SortedBySession(const std::vector<PendingRound>& rounds) {
  return std::is_sorted(rounds.begin(), rounds.end(),
                        [](const PendingRound& a, const PendingRound& b) {
                          return a.session_id < b.session_id;
                        });
}

Query SmallTarget(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = 1;
  opts.theta = 2;
  opts.num_conjunctions = 2;
  opts.conj_size_max = std::min(3, n);
  return RandomRolePreserving(n, rng, opts);
}

TEST(ContinuationTest, PendingLearnMatchesSynchronousRunBitForBit) {
  Query target = SmallTarget(6, 11);
  for (int lanes : {1, 4}) {
    // Pending arm: every user round suspends; the test plays the human.
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter pending_router(opts);
    SessionRouter::SessionId pid = pending_router.OpenPending(6);
    QueryOracle truth(target);
    EXPECT_TRUE(pending_router.SubmitLearn(pid));
    int64_t rounds_answered = AnswerAllPending(pending_router, {{pid, &truth}});
    EXPECT_GT(rounds_answered, 1);
    EXPECT_EQ(pending_router.status(pid), SessionStatus::kIdle);
    EXPECT_EQ(pending_router.suspensions(pid), rounds_answered);

    // Synchronous arm: the identical user answering a bare session inline.
    QueryOracle sync_truth(target);
    QuerySession sync(6, &sync_truth);
    sync.Learn();

    EXPECT_EQ(SessionFingerprint(pending_router.session(pid)),
              SessionFingerprint(sync))
        << "pending continuation diverged from the synchronous run at "
        << lanes << " lanes";
    ASSERT_TRUE(pending_router.session(pid).current_query().has_value());
    EXPECT_TRUE(
        Equivalent(*pending_router.session(pid).current_query(), target));
  }
}

TEST(ContinuationTest, MultiJobSessionCountsEachJobOnce) {
  // Learn + verify + revise on one pending session: every resume re-runs
  // the job log from the start, but completions are counted exactly once.
  Query target = SmallTarget(5, 3);
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  EXPECT_TRUE(router.SubmitLearn(id));
  EXPECT_TRUE(router.SubmitVerify(id, target));
  EXPECT_TRUE(router.SubmitRevise(id, target));
  AnswerAllPending(router, {{id, &truth}});
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 3);
  EXPECT_EQ(stats.learns, 1);
  EXPECT_EQ(stats.verifies, 1);
  EXPECT_EQ(stats.revisions, 1);
  EXPECT_GE(stats.suspensions, 2);
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
}

TEST(ContinuationTest, BlockedSessionYieldsItsOnlyLane) {
  // One lane, two pending sessions. A suspends first and stays blocked;
  // B must be able to run — and fully complete — on the lane A released.
  Query target_a = SmallTarget(5, 7);
  Query target_b = SmallTarget(5, 8);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId a = router.OpenPending(5);
  SessionRouter::SessionId b = router.OpenPending(5);
  QueryOracle truth_b(target_b);
  router.SubmitLearn(a);
  router.SubmitLearn(b);
  router.Drain();
  EXPECT_EQ(router.status(a), SessionStatus::kAwaitingUser);
  EXPECT_EQ(router.status(b), SessionStatus::kAwaitingUser);

  // Answer only B until it completes; A's user never replies.
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    bool b_pending = false;
    for (PendingRound& round : rounds) {
      if (round.session_id != b) continue;
      b_pending = true;
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth_b.IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(b, round.round_id, span),
                ProvideOutcome::kResumed);
    }
    if (!b_pending) break;
  }
  EXPECT_EQ(router.status(b), SessionStatus::kIdle);
  EXPECT_TRUE(Equivalent(*router.session(b).current_query(), target_b));
  EXPECT_EQ(router.status(a), SessionStatus::kAwaitingUser)
      << "A must still be parked — without a thread — while B finished";
  (void)target_a;
}

TEST(ContinuationTest, StatusReportsIdleThenAwaitingUser) {
  SessionRouter::Options opts;
  opts.threads = 1;  // synchronous: transitions are observable deterministically
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(4);
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  router.SubmitLearn(id);  // runs inline at one lane, suspends immediately
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].session_id, id);
  EXPECT_EQ(rounds[0].round_id, 0);
  EXPECT_FALSE(rounds[0].questions.empty());
}

// ---------------------------------------------------------------------------
// Edge cases: malformed submissions and replies must reject, not corrupt.

TEST(ContinuationEdgeTest, SubmitToUnknownOrClosedSessionIsRejected) {
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  EXPECT_FALSE(router.Submit(999, [](QuerySession&) {}));
  EXPECT_FALSE(router.SubmitLearn(999));
  EXPECT_EQ(router.status(999), std::nullopt)
      << "dashboard calls tolerate garbage ids like the rest of the protocol";
  EXPECT_EQ(router.suspensions(999), -1);

  Query target = SmallTarget(4, 1);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(4);
  EXPECT_TRUE(router.SubmitLearn(id));
  AnswerAllPending(router, {{id, &truth}});
  EXPECT_TRUE(router.Close(id));
  EXPECT_FALSE(router.Close(id)) << "second close reports failure";
  EXPECT_FALSE(router.SubmitLearn(id)) << "closed sessions reject jobs";
  // The session object stays inspectable after Close.
  EXPECT_TRUE(router.session(id).current_query().has_value());
}

TEST(ContinuationEdgeTest, MalformedProvideAnswersRejectsWithoutCorruption) {
  Query target = SmallTarget(5, 21);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  const PendingRound& round = rounds[0];

  BitVec bits;
  // Unknown session.
  EXPECT_EQ(router.ProvideAnswers(12345, round.round_id,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kUnknownSession);
  // Stale (future and past) round ids.
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id + 1,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kStaleRound);
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id - 1,
                                  bits.Prepare(round.questions.size())),
            ProvideOutcome::kStaleRound);
  // Wrong answer count.
  EXPECT_EQ(router.ProvideAnswers(id, round.round_id,
                                  bits.Prepare(round.questions.size() + 3)),
            ProvideOutcome::kAnswerCountMismatch);
  // Still awaiting, round unchanged: the rejects touched nothing.
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::optional<PendingRound> after = router.pending_round(id);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->round_id, round.round_id);
  EXPECT_EQ(after->questions.size(), round.questions.size());

  // A well-formed reply after the garbage completes the session with the
  // exact synchronous-run observables — the transcript was not corrupted.
  AnswerRound(router, truth, *after);
  AnswerAllPending(router, {{id, &truth}});
  QueryOracle sync_truth(target);
  QuerySession sync(5, &sync_truth);
  sync.Learn();
  EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync));

  // Answers for a session that is not awaiting.
  EXPECT_EQ(router.ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kNotAwaiting);
}

TEST(ContinuationEdgeTest, CloseAbandonsAPendingRound) {
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(4);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ASSERT_EQ(router.PendingRounds().size(), 1u);
  EXPECT_TRUE(router.Close(id));
  EXPECT_TRUE(router.PendingRounds().empty());
  BitVec bits;
  EXPECT_EQ(router.ProvideAnswers(id, 0, bits.Prepare(1)),
            ProvideOutcome::kSessionClosed);
  // Drain waits only for the parked stack's unwind (inline at one lane):
  // the abandoned jobs are not runnable.
  router.Drain();
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 0);
  EXPECT_EQ(stats.awaiting_sessions, 0);
}

#if defined(__SANITIZE_THREAD__)
#define QHORN_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QHORN_TEST_TSAN 1
#endif
#endif
#if defined(QHORN_TEST_TSAN)
// TSan's runtime splits its shadow mappings as stacks are unmapped (256
// closed stacks, 512 mappings, made the count fall by only ~250), so there
// the count can only show that most stacks went.
constexpr size_t kMinUnmapped = 128;
#else
constexpr size_t kMinUnmapped = 256;  // at least one per parked stack
#endif

/// Lines of /proc/self/maps: the process's memory mappings.
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ContinuationEdgeTest, CloseUnwindsTheParkedStackAtTheClose) {
  // A parked stack is a mapping plus a guard page. Closing its session
  // must unmap it then, not when the router goes: a client that opens and
  // abandons sessions would otherwise run the process out of mappings
  // (vm.max_map_count) and abort on the next fiber's mmap.
  for (int lanes : {1, 4}) {
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter router(opts);
    constexpr int kSessions = 256;
    static_assert(kMinUnmapped <= kSessions);
    std::vector<SessionRouter::SessionId> ids;
    for (int i = 0; i < kSessions; ++i) {
      ids.push_back(router.OpenPending(4));
      router.SubmitLearn(ids.back());
    }
    router.Drain();
    ASSERT_EQ(router.stats().awaiting_sessions, kSessions);
    const size_t parked = MappingCount();
    for (SessionRouter::SessionId id : ids) EXPECT_TRUE(router.Close(id));
    router.Drain();
    const size_t closed = MappingCount();
    EXPECT_GE(parked, closed + kMinUnmapped)
        << lanes << " lanes: " << parked << " mappings parked, "
        << closed << " after closing every session";
    for (SessionRouter::SessionId id : ids) {
      EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    }
    EXPECT_EQ(router.stats().awaiting_sessions, 0);
  }
}

TEST(ContinuationEdgeTest, SubmitWhileAwaitingQueuesBehindTheAnswer) {
  Query target = SmallTarget(5, 31);
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  QueryOracle truth(target);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  // A verify submitted while blocked must wait for the user, then run.
  EXPECT_TRUE(router.SubmitVerify(id, target));
  router.Drain();  // still blocked: the verify is not runnable yet
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  AnswerAllPending(router, {{id, &truth}});
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.jobs, 2);
  EXPECT_EQ(stats.learns, 1);
  EXPECT_EQ(stats.verifies, 1);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
}

TEST(ContinuationEdgeTest, OutOfOrderAndDuplicateDeliveryAcrossPendingRounds) {
  // Three sessions, all suspended concurrently. Answers arrive in reverse
  // session order (out of order with respect to PendingRounds' ordering),
  // interleaved with duplicate and stale deliveries — every duplicate or
  // stale round id must reject without touching any session, and the
  // final observables must still equal the synchronous replay.
  SessionRouter::Options opts;
  opts.threads = 1;  // inline: each resume runs to its next suspension
  SessionRouter router(opts);
  std::vector<Query> targets;
  std::vector<SessionRouter::SessionId> ids;
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::map<SessionRouter::SessionId, QueryOracle*> truth_of;
  for (uint64_t s = 0; s < 3; ++s) {
    targets.push_back(SmallTarget(5, 61 + s));
    ids.push_back(router.OpenPending(5));
    truths.push_back(std::make_unique<QueryOracle>(targets.back()));
    truth_of[ids.back()] = truths.back().get();
    router.SubmitLearn(ids.back());
  }
  router.Drain();
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 3u) << "all three sessions must be pending at once";

  // Reverse delivery order; after each accepted answer, re-deliver the
  // same round (duplicate) and the already-consumed round id (stale).
  BitVec bits;
  for (size_t i = rounds.size(); i > 0; --i) {
    PendingRound& round = rounds[i - 1];
    BitSpan span = bits.Prepare(round.questions.size());
    truth_of.at(round.session_id)->IsAnswerBatch(round.questions, span);
    ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
              ProvideOutcome::kResumed);
    // Snapshot the session's state after the resume (at one lane the
    // resume ran inline: the session is idle or pending its next round).
    std::optional<SessionStatus> before = router.status(round.session_id);
    int64_t suspensions_before = router.suspensions(round.session_id);
    // Duplicate of the just-answered round: the session either finished
    // (kNotAwaiting) or pends round_id+1 (kStaleRound) — never kResumed.
    ProvideOutcome dup = router.ProvideAnswers(
        round.session_id, round.round_id, bits.Prepare(round.questions.size()));
    EXPECT_TRUE(dup == ProvideOutcome::kNotAwaiting ||
                dup == ProvideOutcome::kStaleRound)
        << "duplicate delivery resumed a session twice";
    // A round id from the future must also bounce.
    ProvideOutcome future = router.ProvideAnswers(
        round.session_id, round.round_id + 7,
        bits.Prepare(round.questions.size()));
    EXPECT_TRUE(future == ProvideOutcome::kNotAwaiting ||
                future == ProvideOutcome::kStaleRound);
    // Neither garbage delivery changed anything observable.
    EXPECT_EQ(router.status(round.session_id), before);
    EXPECT_EQ(router.suspensions(round.session_id), suspensions_before);
  }

  // Drive everything home (answers keep arriving in reverse order).
  for (;;) {
    router.Drain();
    std::vector<PendingRound> live = router.PendingRounds();
    if (live.empty()) break;
    for (size_t i = live.size(); i > 0; --i) {
      PendingRound& round = live[i - 1];
      BitSpan span = bits.Prepare(round.questions.size());
      truth_of.at(round.session_id)->IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                ProvideOutcome::kResumed);
    }
  }

  // Bit-identical to the synchronous run despite the hostile delivery.
  for (size_t s = 0; s < 3; ++s) {
    QueryOracle sync_truth(targets[s]);
    QuerySession sync(5, &sync_truth);
    sync.Learn();
    EXPECT_EQ(SessionFingerprint(router.session(ids[s])),
              SessionFingerprint(sync))
        << "session " << s << " diverged after out-of-order delivery";
    EXPECT_TRUE(Equivalent(*router.session(ids[s]).current_query(),
                           targets[s]));
  }
}

TEST(ContinuationEdgeTest, CloseRacesProvideAnswersCleanly) {
  // Close and ProvideAnswers racing on the same suspended session (the
  // only pinned race so far was Open vs Drain). Whatever the
  // interleaving, the outcome must be one of exactly two clean states —
  // the close won (reply rejected, transcript untouched) or the resume
  // won (answers folded, session then closed) — never a torn transcript,
  // a hang, or a crash. Runs under the tsan preset in CI.
  for (int iteration = 0; iteration < 25; ++iteration) {
    Query target = SmallTarget(5, 71 + static_cast<uint64_t>(iteration));
    SessionRouter::Options opts;
    opts.threads = 2;
    SessionRouter router(opts);
    QueryOracle truth(target);
    SessionRouter::SessionId id = router.OpenPending(5);
    router.SubmitLearn(id);
    router.Drain();
    ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
    std::vector<PendingRound> rounds = router.PendingRounds();
    ASSERT_EQ(rounds.size(), 1u);
    const PendingRound& round = rounds[0];
    std::string fingerprint_before = SessionFingerprint(router.session(id));

    BitVec bits;
    BitSpan span = bits.Prepare(round.questions.size());
    truth.IsAnswerBatch(round.questions, span);
    ProvideOutcome outcome = ProvideOutcome::kResumed;
    bool closed = false;
    std::thread closer([&] { closed = router.Close(id); });
    std::thread answerer(
        [&] { outcome = router.ProvideAnswers(id, round.round_id, span); });
    closer.join();
    answerer.join();

    EXPECT_TRUE(closed) << "the session was open and awaiting: Close wins";
    EXPECT_TRUE(outcome == ProvideOutcome::kResumed ||
                outcome == ProvideOutcome::kSessionClosed)
        << "race produced outcome " << static_cast<int>(outcome);
    // Whichever side won, the router must settle without external input:
    // a resumed-then-closed session abandons its next round instead of
    // re-surfacing it.
    router.Drain();
    EXPECT_TRUE(router.PendingRounds().empty())
        << "a closed session re-surfaced a pending round";
    EXPECT_EQ(router.ProvideAnswers(id, round.round_id + 1, span),
              ProvideOutcome::kSessionClosed);
    if (outcome == ProvideOutcome::kSessionClosed) {
      // Clean close: the reply bounced, so the transcript is exactly the
      // suspension-time state — not one answer leaked in.
      EXPECT_EQ(SessionFingerprint(router.session(id)), fingerprint_before)
          << "a rejected reply mutated the transcript";
    }
  }
}

TEST(ContinuationEdgeTest, CorrectAnswerRewindsASuspendedSession) {
  // The §5 correction workflow, now *supported* mid-suspension through the
  // router (this replaces the old blanket-refusal death test — the refusal
  // survives only at the QuerySession level, pinned below). The user
  // answers the first round with one flipped bit, lets the session suspend
  // on the mislearned path, then corrects the flipped entry: the session
  // must restart, replay the corrected prefix without re-asking it, and
  // converge to the exact observables of a user who answered truthfully
  // from the start. The correction unwinds the parked stack (cancel + one
  // last resume) before the fresh full-prefix attempt.
  Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 1;  // inline: each resume runs to its next suspension
  SessionRouter router(opts);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(5);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  std::vector<PendingRound> rounds = router.PendingRounds();
  ASSERT_EQ(rounds.size(), 1u);
  const PendingRound round0 = rounds[0];

  // Round 0 goes back with its first answer flipped.
  BitVec bits;
  BitSpan span = bits.Prepare(round0.questions.size());
  truth.IsAnswerBatch(round0.questions, span);
  span.Set(0, !span.Get(0));
  ASSERT_EQ(router.ProvideAnswers(id, round0.round_id, span),
            ProvideOutcome::kResumed);
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser)
      << "one flipped bit cannot complete a learn at n=5";
  std::vector<PendingRound> mislearned = router.PendingRounds();
  ASSERT_EQ(mislearned.size(), 1u);
  const PendingRound abandoned = mislearned[0];

  // Garbage corrections first: they must reject without touching state.
  EXPECT_EQ(router.CorrectAnswer(id + 999, 0),
            ProvideOutcome::kUnknownSession);
  EXPECT_EQ(router.CorrectAnswer(id, round0.questions.size() + 50),
            ProvideOutcome::kAnswerCountMismatch);
  EXPECT_EQ(router.status(id), SessionStatus::kAwaitingUser);

  // The real correction: flip entry 0 back to the truthful answer. The
  // session restarts its job log; the corrected prefix is replayed (the
  // user is not re-asked), and the session re-suspends on the question
  // stream a truthful round 0 produces.
  ASSERT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kResumed);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  // The abandoned round's id was retired: a stale reply to it bounces.
  EXPECT_EQ(router.ProvideAnswers(id, abandoned.round_id,
                                  bits.Prepare(abandoned.questions.size())),
            ProvideOutcome::kStaleRound);

  // Answer truthfully to completion; every observable must equal a
  // clean synchronous run over the truthful answer stream.
  AnswerAllPending(router, {{id, &truth}});
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  EXPECT_EQ(router.stats().corrections, 1);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));

  QueryOracle sync_truth(target);
  QuerySession sync(5, &sync_truth);
  sync.Learn();
  EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync))
      << "corrected session diverged from the truthful run";

  // Corrections require a parked round: an idle session reports
  // kNotAwaiting, a closed one kSessionClosed.
  EXPECT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kNotAwaiting);
  EXPECT_TRUE(router.Close(id));
  EXPECT_EQ(router.CorrectAnswer(id, 0), ProvideOutcome::kSessionClosed);
}

TEST(ContinuationEdgeTest, OneFlippedAnswerNeverAbortsTheService) {
  // A user who gets one answer wrong feeds the learner an answer stream no
  // role-preserving query produces. Whichever answer it is, the session
  // must finish its jobs with a query of its arity, not abort the
  // process (the existential search once reached the empty tuple here).
  const Query target = Query::Parse("∀x1x2→x4 ∃x3", 4);
  const Query mutant = Query::Parse("∀x1→x4 ∃x2x3", 4);
  QueryOracle reference_user(target);
  QuerySession reference(4, &reference_user);
  reference.Learn();
  reference.Verify(target);
  reference.Verify(mutant);
  reference.Revise(mutant);
  const int64_t truthful_questions = reference.questions_asked();
  ASSERT_GT(truthful_questions, 25);
  for (int64_t flip = 0; flip < truthful_questions; ++flip) {
    SessionRouter::Options opts;
    opts.threads = 1;
    SessionRouter router(opts);
    QueryOracle truth(target);
    SessionRouter::SessionId id = router.OpenPending(4);
    router.SubmitLearn(id);
    router.SubmitVerify(id, target);
    router.SubmitVerify(id, mutant);
    router.SubmitRevise(id, mutant);
    int64_t asked = 0;
    BitVec bits;
    for (;;) {
      router.Drain();
      std::vector<PendingRound> rounds = router.PendingRounds();
      if (rounds.empty()) break;
      for (const PendingRound& round : rounds) {
        BitSpan span = bits.Prepare(round.questions.size());
        truth.IsAnswerBatch(round.questions, span);
        for (size_t q = 0; q < round.questions.size(); ++q, ++asked) {
          if (asked == flip) span.Set(q, !span.Get(q));
        }
        ASSERT_EQ(router.ProvideAnswers(id, round.round_id, span),
                  ProvideOutcome::kResumed);
      }
    }
    EXPECT_EQ(router.status(id), SessionStatus::kIdle) << "flip " << flip;
    EXPECT_EQ(router.stats().jobs, 4) << "flip " << flip;
    ASSERT_TRUE(router.session(id).current_query().has_value());
    EXPECT_EQ(router.session(id).current_query()->n(), 4);
  }
}

// ---------------------------------------------------------------------------
// The poll contract: PendingRounds() is edge-triggered. Each announced round
// is delivered by exactly one poll, in session-id order; a round retired
// before its poll is never delivered; pending_round(id) re-reads a round
// already delivered.

TEST(PollContractTest, EachRoundIsDeliveredByExactlyOnePoll) {
  Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 2;
  SessionRouter router(opts);
  QueryOracle truth(target);
  constexpr size_t kSessions = 8;
  std::vector<SessionRouter::SessionId> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    ids.push_back(router.OpenPending(5));
    ASSERT_TRUE(router.SubmitLearn(ids.back()));
  }
  router.Drain();
  std::vector<PendingRound> first = router.PendingRounds();
  ASSERT_EQ(first.size(), kSessions);
  EXPECT_TRUE(SortedBySession(first));
  EXPECT_TRUE(router.PendingRounds().empty())
      << "a second poll with nothing announced in between delivered again";

  // Answer the even sessions only. The next poll delivers exactly their
  // new rounds; the odd sessions' rounds stay delivered-and-awaiting, and
  // pending_round(id) is how to read them again.
  std::map<SessionRouter::SessionId, std::vector<int64_t>> delivered;
  for (const PendingRound& round : first) {
    delivered[round.session_id].push_back(round.round_id);
  }
  for (size_t i = 0; i < kSessions; i += 2) {
    AnswerRound(router, truth, first[i]);
  }
  router.Drain();
  std::vector<PendingRound> second = router.PendingRounds();
  EXPECT_TRUE(SortedBySession(second));
  for (const PendingRound& round : second) {
    const auto at = std::find(ids.begin(), ids.end(), round.session_id);
    ASSERT_NE(at, ids.end());
    EXPECT_EQ((at - ids.begin()) % 2, 0) << "an unanswered round came back";
    EXPECT_EQ(round.round_id, 1);
    delivered[round.session_id].push_back(round.round_id);
  }
  for (size_t i = 1; i < kSessions; i += 2) {
    std::optional<PendingRound> again = router.pending_round(ids[i]);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->round_id, first[i].round_id);
    EXPECT_EQ(again->questions, first[i].questions);
    AnswerRound(router, truth, *again);
  }

  // Drive everything home. Across all polls, each session's delivered
  // round ids are 0, 1, 2, … with no repeat and no gap, one per suspension.
  for (const PendingRound& round : second) AnswerRound(router, truth, round);
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    EXPECT_TRUE(SortedBySession(rounds));
    for (const PendingRound& round : rounds) {
      delivered[round.session_id].push_back(round.round_id);
      AnswerRound(router, truth, round);
    }
  }
  for (SessionRouter::SessionId id : ids) {
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    const std::vector<int64_t>& got = delivered[id];
    ASSERT_EQ(static_cast<int64_t>(got.size()), router.suspensions(id));
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], static_cast<int64_t>(r)) << "session " << id;
    }
  }
}

TEST(PollContractTest, RoundRetiredBeforeItsPollIsNeverDelivered) {
  // Between two polls, twelve sessions each announce a round; four of
  // those rounds are answered, four closed and four corrected before the
  // next poll. The poll delivers none of the twelve retired rounds — only
  // the rounds the answered and corrected sessions announced afterwards.
  // Under the asan preset this also walks every slot move of the retire
  // path.
  Query target = SmallTarget(5, 97);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  QueryOracle truth(target);
  constexpr size_t kSessions = 12;
  std::vector<SessionRouter::SessionId> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    SessionRouter::SessionId id = router.OpenPending(5);
    ASSERT_TRUE(router.SubmitLearn(id));
    ids.push_back(id);
  }
  router.Drain();
  std::vector<PendingRound> first = router.PendingRounds();
  ASSERT_EQ(first.size(), kSessions);
  // One answered round each, so every session has an entry to correct.
  for (const PendingRound& round : first) AnswerRound(router, truth, round);
  router.Drain();

  // The twelve round-1 announcements, read without polling.
  std::vector<PendingRound> announced;
  for (SessionRouter::SessionId id : ids) {
    std::optional<PendingRound> round = router.pending_round(id);
    ASSERT_TRUE(round.has_value()) << "one round cannot finish a learn";
    EXPECT_EQ(round->round_id, 1);
    announced.push_back(*round);
  }
  // Retire them in an order that moves slots around: answer from the
  // back, close from the middle, correct from the front.
  for (size_t i = 12; i > 8; --i) AnswerRound(router, truth, announced[i - 1]);
  for (size_t i = 4; i < 8; ++i) ASSERT_TRUE(router.Close(ids[i]));
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(router.CorrectAnswer(ids[i], 0), ProvideOutcome::kResumed);
  }
  router.Drain();

  std::vector<PendingRound> second = router.PendingRounds();
  EXPECT_TRUE(SortedBySession(second));
  size_t awaiting = 0;
  for (SessionRouter::SessionId id : ids) {
    awaiting += router.status(id) == SessionStatus::kAwaitingUser ? 1 : 0;
  }
  EXPECT_EQ(second.size(), awaiting)
      << "the poll must deliver exactly the rounds announced after retiring";
  for (const PendingRound& round : second) {
    const size_t index = static_cast<size_t>(
        std::find(ids.begin(), ids.end(), round.session_id) - ids.begin());
    ASSERT_LT(index, kSessions);
    EXPECT_FALSE(index >= 4 && index < 8) << "closed session delivered";
    EXPECT_GT(round.round_id, announced[index].round_id)
        << "a retired round was delivered";
    std::optional<PendingRound> now = router.pending_round(round.session_id);
    ASSERT_TRUE(now.has_value());
    EXPECT_EQ(now->round_id, round.round_id);
  }

  // Retire every remaining round: nothing is ever delivered again.
  for (SessionRouter::SessionId id : ids) router.Close(id);
  EXPECT_TRUE(router.PendingRounds().empty());
}

TEST(PollContractTest, ConcurrentPollersGetDisjointBatchesCoveringEveryRound) {
  // Four threads poll one 3-lane router at once and answer whatever their
  // poll delivered, while the lanes suspend and resume sessions under
  // them. Every answer must be accepted — a round delivered to two pollers
  // would bounce the second answer off kStaleRound or kNotAwaiting — and
  // across all batches each session must see every one of its rounds,
  // once. Runs under the tsan preset in CI.
  constexpr int kPollers = 4;
  constexpr size_t kSessions = 24;
  SessionRouter::Options opts;
  opts.threads = 3;
  SessionRouter router(opts);
  std::vector<Query> targets;
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::map<SessionRouter::SessionId, QueryOracle*> truth_of;
  std::vector<SessionRouter::SessionId> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    targets.push_back(SmallTarget(5, 300 + i));
    truths.push_back(std::make_unique<QueryOracle>(targets.back()));
    ids.push_back(router.OpenPending(5));
    truth_of[ids.back()] = truths.back().get();
  }
  struct Delivered {
    SessionRouter::SessionId session;
    int64_t round;
  };
  std::vector<std::vector<Delivered>> batches(kPollers);
  std::vector<int> rejected(kPollers, 0);
  std::vector<int> unsorted(kPollers, 0);
  std::atomic<bool> done{false};
  std::vector<std::thread> pollers;
  for (int p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&, p] {
      BitVec bits;
      while (!done.load(std::memory_order_acquire)) {
        std::vector<PendingRound> rounds = router.PendingRounds();
        if (!SortedBySession(rounds)) ++unsorted[p];
        for (const PendingRound& round : rounds) {
          batches[p].push_back({round.session_id, round.round_id});
          BitSpan span = bits.Prepare(round.questions.size());
          truth_of.at(round.session_id)->IsAnswerBatch(round.questions, span);
          if (router.ProvideAnswers(round.session_id, round.round_id, span) !=
              ProvideOutcome::kResumed) {
            ++rejected[p];
          }
        }
        if (rounds.empty()) std::this_thread::yield();
      }
    });
  }
  for (SessionRouter::SessionId id : ids) EXPECT_TRUE(router.SubmitLearn(id));
  // A round no poller ever got would leave its session awaiting forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    router.Drain();
    bool all_idle = true;
    for (SessionRouter::SessionId id : ids) {
      all_idle = all_idle && router.status(id) == SessionStatus::kIdle;
    }
    if (all_idle) break;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "a session never finished: a round was not delivered";
      break;
    }
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();

  std::map<SessionRouter::SessionId, std::vector<int64_t>> seen;
  for (int p = 0; p < kPollers; ++p) {
    EXPECT_EQ(rejected[p], 0) << "poller " << p << " got a round twice";
    EXPECT_EQ(unsorted[p], 0) << "poller " << p << " got an unsorted batch";
    for (const Delivered& d : batches[p]) seen[d.session].push_back(d.round);
  }
  for (size_t i = 0; i < kSessions; ++i) {
    std::vector<int64_t>& got = seen[ids[i]];
    std::sort(got.begin(), got.end());
    ASSERT_EQ(static_cast<int64_t>(got.size()), router.suspensions(ids[i]));
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r], static_cast<int64_t>(r)) << "session " << i;
    }
    EXPECT_TRUE(Equivalent(*router.session(ids[i]).current_query(),
                           targets[i]));
  }
}

// ---------------------------------------------------------------------------
// The single user-boundary transcript: the session's cache log is the only
// record of what the user answered, so it must equal, question for
// question, every round the embedding server answered — corrections
// applied — in both resume modes.

/// What the test's user answered, in order, as the router should see it.
struct AnswerRecord {
  std::vector<TranscriptEntry> entries;

  void Answer(const PendingRound& round, BitSpan bits) {
    for (size_t i = 0; i < round.questions.size(); ++i) {
      entries.push_back(TranscriptEntry{round.questions[i], bits.Get(i), 0});
    }
  }
  void Correct(size_t index) {
    entries.resize(index + 1);
    entries[index].response = !entries[index].response;
  }
};

/// The transcript equals the record, or — with `prefix_only`, for a round
/// pending after a mid-round correction — is a prefix of it.
void ExpectSameTranscript(const AnswerRecord& record,
                          std::span<const TranscriptEntry> transcript,
                          const std::string& when, bool prefix_only = false) {
  if (prefix_only) {
    ASSERT_LE(transcript.size(), record.entries.size()) << when;
  } else {
    ASSERT_EQ(transcript.size(), record.entries.size()) << when;
  }
  for (size_t i = 0; i < transcript.size(); ++i) {
    EXPECT_EQ(transcript[i].question, record.entries[i].question)
        << when << ", entry " << i;
    EXPECT_EQ(transcript[i].response, record.entries[i].response)
        << when << ", entry " << i;
  }
}

TEST(ContinuationTest, FiberResumeMatchesTheSynchronousSession) {
  // A pending session resumed round by round must be observationally
  // indistinguishable from a bare synchronous QuerySession over the same
  // answers — same fingerprint, same question count — while replaying
  // nothing: the parked frame consumes the answers in place. The session's
  // user transcript — the question cache's log, the one record of what the
  // user answered — equals every answered round, question for question,
  // while awaiting and at the end.
  Query target = SmallTarget(6, 13);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(6);
  router.SubmitLearn(id);
  router.SubmitVerify(id, target);
  AnswerRecord record;
  int64_t resumes = 0;
  for (;;) {
    router.Drain();
    ExpectSameTranscript(record, router.session(id).user_transcript(),
                         "while awaiting");
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    ASSERT_EQ(rounds.size(), 1u);
    BitVec bits;
    BitSpan span = bits.Prepare(rounds[0].questions.size());
    truth.IsAnswerBatch(rounds[0].questions, span);
    record.Answer(rounds[0], span);
    ++resumes;
    ASSERT_EQ(router.ProvideAnswers(id, rounds[0].round_id, span),
              ProvideOutcome::kResumed);
  }
  EXPECT_EQ(static_cast<int64_t>(record.entries.size()),
            router.session(id).questions_asked());
  EXPECT_GT(resumes, 1);

  QueryOracle sync_truth(target);
  QuerySession sync(6, &sync_truth);
  sync.Learn();
  sync.Verify(target);
  EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync))
      << "the pending session diverged from the synchronous run";
  EXPECT_EQ(static_cast<int64_t>(record.entries.size()),
            sync.questions_asked());
  // O(1) per resume: nothing crosses a user-boundary replay stage.
  EXPECT_EQ(router.stats().replayed_questions, 0)
      << "fiber resume re-served questions despite the parked stack";
}

TEST(UserTranscriptTest, CorrectionsTruncateTheOneTranscript) {
  // Corrections at the last answered entry, at entry 0 (the restart then
  // re-asks the rest of round 0 — a round that begins inside the replayed
  // prefix) and at entry 0 again while that round is pending, bracketed by
  // refusals that must leave the transcript as it was. The record of what
  // the test answered, corrections applied, must equal the session's user
  // transcript (while the re-asked rest of round 0 pends, its replayed
  // head is not logged yet: a prefix), and the final session must equal a
  // truthful synchronous run.
  Query target = SmallTarget(6, 13);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  QueryOracle truth(target);
  SessionRouter::SessionId id = router.OpenPending(6);
  router.SubmitLearn(id);
  router.Drain();
  AnswerRecord record;
  auto transcript = [&] { return router.session(id).user_transcript(); };
  auto answer = [&](bool flip_last) {
    std::optional<PendingRound> round = router.pending_round(id);
    ASSERT_TRUE(round.has_value());
    BitVec bits;
    BitSpan span = bits.Prepare(round->questions.size());
    truth.IsAnswerBatch(round->questions, span);
    const size_t last = round->questions.size() - 1;
    if (flip_last) span.Set(last, !span.Get(last));
    record.Answer(*round, span);
    ASSERT_EQ(router.ProvideAnswers(id, round->round_id, span),
              ProvideOutcome::kResumed);
    router.Drain();
  };
  auto correct = [&](size_t index, bool mid_round) {
    ASSERT_EQ(router.CorrectAnswer(id, index), ProvideOutcome::kResumed);
    record.Correct(index);
    router.Drain();
    ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
    ExpectSameTranscript(record, transcript(),
                         "after correcting " + std::to_string(index),
                         mid_round);
  };

  // Round 0 with its last answer flipped; the session parks on round 1.
  router.PendingRounds();
  std::optional<PendingRound> round0 = router.pending_round(id);
  ASSERT_TRUE(round0.has_value());
  ASSERT_GE(round0->questions.size(), 2u);
  answer(/*flip_last=*/true);
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ExpectSameTranscript(record, transcript(), "after round 0");
  const size_t answered = record.entries.size();
  ASSERT_EQ(answered, round0->questions.size());

  // A refused reply leaves the transcript unchanged.
  std::optional<PendingRound> pending = router.pending_round(id);
  ASSERT_TRUE(pending.has_value());
  BitVec bits;
  EXPECT_EQ(router.ProvideAnswers(id, pending->round_id,
                                  bits.Prepare(pending->questions.size() + 1)),
            ProvideOutcome::kAnswerCountMismatch);
  EXPECT_EQ(router.ProvideAnswers(id, pending->round_id + 1,
                                  bits.Prepare(pending->questions.size())),
            ProvideOutcome::kStaleRound);
  ExpectSameTranscript(record, transcript(), "after refused replies");

  // The answered count itself is out of range.
  EXPECT_EQ(router.CorrectAnswer(id, answered),
            ProvideOutcome::kAnswerCountMismatch);
  ExpectSameTranscript(record, transcript(), "after a refused fix");

  // Back to the truth: round 0 replays whole, round 1 pends again.
  correct(answered - 1, /*mid_round=*/false);
  // Entry 0 now lies; the rest of round 0 is re-asked, nothing else.
  correct(0, /*mid_round=*/true);
  std::optional<PendingRound> rest = router.pending_round(id);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->questions,
            std::vector<TupleSet>(round0->questions.begin() + 1,
                                  round0->questions.end()));
  // And back, while that re-asked round pends.
  correct(0, /*mid_round=*/true);
  EXPECT_EQ(router.CorrectAnswer(id, 1),
            ProvideOutcome::kAnswerCountMismatch)
      << "only entry 0 survives a correction at entry 0";

  // Answer truthfully to completion.
  while (router.pending_round(id).has_value()) answer(/*flip_last=*/false);
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  ExpectSameTranscript(record, transcript(), "at the end");
  EXPECT_EQ(router.stats().corrections, 3);

  QueryOracle sync_truth(target);
  QuerySession sync(6, &sync_truth);
  sync.Learn();
  EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync))
      << "corrected session diverged from the truthful run";
}

TEST(ContinuationTest, PolledRoundsShareTheParkedFramesQuestions) {
  // A polled round's heap questions share their blocks with the parked
  // frame: the announcement copies no tuple, and pending_round(id) reads
  // the same storage. The poller's copies must stay byte-identical while
  // the resumed frame, on another lane, goes on to mutate and destroy its
  // own (the tsan preset checks the reads against those writes).
  const int n = 10;
  Rng rng(29);
  const Query target = RandomRolePreserving(n, rng);
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  const SessionRouter::SessionId id = router.OpenPending(n);
  QueryOracle truth(target);
  ASSERT_TRUE(router.SubmitLearn(id));

  struct Kept {
    PendingRound round;
    std::vector<std::vector<Tuple>> tuples;
    std::vector<size_t> hashes;
  };
  std::vector<Kept> kept;
  const auto expect_intact = [&kept] {
    for (const Kept& k : kept) {
      for (size_t i = 0; i < k.tuples.size(); ++i) {
        const TupleSet& q = k.round.questions[i];
        ASSERT_TRUE(std::equal(q.begin(), q.end(), k.tuples[i].begin(),
                               k.tuples[i].end()))
            << "round " << k.round.round_id << " question " << i;
        ASSERT_EQ(q.Hash(), k.hashes[i]);
      }
    }
  };
  size_t shared = 0;
  for (;;) {
    router.Drain();
    std::vector<PendingRound> rounds = router.PendingRounds();
    if (rounds.empty()) break;
    ASSERT_EQ(rounds.size(), 1u);
    const std::optional<PendingRound> reread = router.pending_round(id);
    ASSERT_TRUE(reread.has_value());
    Kept k{std::move(rounds[0]), {}, {}};
    ASSERT_EQ(reread->questions.size(), k.round.questions.size());
    for (size_t i = 0; i < k.round.questions.size(); ++i) {
      const TupleSet& q = k.round.questions[i];
      ASSERT_EQ(reread->questions[i], q);
      if (q.heap_bytes() > 0) {
        EXPECT_EQ(reread->questions[i].tuples().data(), q.tuples().data());
        ++shared;
      }
      k.tuples.emplace_back(q.begin(), q.end());
      k.hashes.push_back(TupleSet(q.tuples()).Hash());
    }
    AnswerRound(router, truth, k.round);
    kept.push_back(std::move(k));
    // The session now runs on a lane; read every copy kept so far.
    expect_intact();
  }
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  ASSERT_TRUE(router.session(id).current_query().has_value());
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
  EXPECT_GT(shared, 0u) << "the target must ask some heap questions";
  expect_intact();
}

TEST(ContinuationTest, AwaitingSessionReportsItsSnapshotBytes) {
  // The service surfaces each parked session's resume residency
  // (ServiceStats.snapshot_bytes) so operators can budget memory: a
  // parked session keeps a live stack, and its size must show up there.
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  SessionRouter::SessionId id = router.OpenPending(5);
  router.SubmitLearn(id);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  EXPECT_EQ(router.stats().awaiting_sessions, 1);
  EXPECT_GT(router.stats().snapshot_bytes, 0)
      << "a parked fiber must account for its mapped stack";
}

TEST(ContinuationEdgeTest, CorrectAndRelearnJobParksAndResumesLikeAnyOther) {
  // The §5 library correction inside a router job: CorrectAndRelearn
  // rebuilds the session's own chain over the corrected prefix and
  // relearns, and every fresh question it asks parks the job on the user
  // like any other round. Answered from the truth, the session ends
  // bit-identical to a bare session that learns and then corrects.
  Query target = SmallTarget(5, 51);
  QueryOracle sync_truth(target);
  QuerySession sync(5, &sync_truth);
  sync.Learn();
  const size_t k = sync.history().size() / 2;
  sync.CorrectAndRelearn(k);
  for (int lanes : {1, 4}) {
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter router(opts);
    SessionRouter::SessionId id = router.OpenPending(5);
    ASSERT_TRUE(router.SubmitLearn(id));
    ASSERT_TRUE(router.Submit(
        id, [k](QuerySession& session) { session.CorrectAndRelearn(k); }));
    QueryOracle truth(target);
    const int64_t rounds = AnswerAllPending(router, {{id, &truth}});
    EXPECT_GT(router.suspensions(id), 0);
    EXPECT_EQ(router.suspensions(id), rounds);
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    EXPECT_EQ(router.stats().jobs, 2);
    EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync))
        << "at " << lanes << " lanes";
  }
}

TEST(ContinuationEdgeTest, CorrectAnswerDuringACorrectAndRelearnJob) {
  // A CorrectAnswer while a CorrectAndRelearn job awaits its first fresh
  // round. The router's range check and the restart must index one
  // answered prefix: the one the job's restart left, its replayed head
  // included — not the count of answers the user gave, which also holds
  // the Learn answers after the job's flip. Walking down from that count,
  // every index past the prefix is refused, and the first one accepted is
  // the prefix's last entry: the job's own flip, now flipped back. The
  // re-run Learn then matches a truthful one, and the re-run job ends as
  // a bare session that learns and then corrects.
  Query target = SmallTarget(5, 51);
  QueryOracle sync_truth(target);
  QuerySession sync(5, &sync_truth);
  sync.Learn();
  const size_t k = sync.history().size() / 2;
  sync.CorrectAndRelearn(k);
  for (int lanes : {1, 4}) {
    SessionRouter::Options opts;
    opts.threads = lanes;
    SessionRouter router(opts);
    const SessionRouter::SessionId id = router.OpenPending(5);
    ASSERT_TRUE(router.SubmitLearn(id));
    ASSERT_TRUE(router.Submit(
        id, [k](QuerySession& session) { session.CorrectAndRelearn(k); }));
    QueryOracle truth(target);
    size_t given = 0;  // answers the user gave
    for (;;) {
      router.Drain();
      std::optional<PendingRound> round = router.pending_round(id);
      ASSERT_TRUE(round.has_value()) << "the relearn asked the user nothing";
      if (router.stats().jobs == 1) break;  // the relearn awaits
      given += round->questions.size();
      AnswerRound(router, truth, *round);
    }
    size_t index = given;
    ProvideOutcome outcome = ProvideOutcome::kAnswerCountMismatch;
    while ((outcome = router.CorrectAnswer(id, index)) ==
           ProvideOutcome::kAnswerCountMismatch) {
      ASSERT_GT(index, 0u);
      --index;
    }
    ASSERT_EQ(outcome, ProvideOutcome::kResumed) << "at " << lanes << " lanes";
    EXPECT_LT(index, given) << "at " << lanes << " lanes";
    AnswerAllPending(router, {{id, &truth}});
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    EXPECT_EQ(router.stats().corrections, 1);
    EXPECT_EQ(router.stats().jobs, 3);  // Learn, then both jobs again
    EXPECT_EQ(SessionFingerprint(router.session(id)), SessionFingerprint(sync))
        << "at " << lanes << " lanes";
  }
}

// ---------------------------------------------------------------------------
// Open racing Drain: opening and submitting from one thread while another
// drains must neither crash nor lose jobs (run under the tsan preset).

TEST(ContinuationEdgeTest, OpenRacesDrain) {
  Query target = SmallTarget(5, 41);
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  QueryOracle truth(target);
  std::vector<SessionRouter::SessionId> ids;
  std::atomic<bool> done{false};
  std::thread opener([&] {
    for (int i = 0; i < 24; ++i) {
      SessionRouter::SessionId id = router.OpenPending(5);
      router.SubmitLearn(id);
      ids.push_back(id);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    router.Drain();
  }
  opener.join();
  std::map<SessionRouter::SessionId, QueryOracle*> truths;
  for (SessionRouter::SessionId id : ids) truths[id] = &truth;
  AnswerAllPending(router, truths);
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, 24);
  EXPECT_EQ(stats.learns, 24);
  for (SessionRouter::SessionId id : ids) {
    EXPECT_TRUE(Equivalent(*router.session(id).current_query(), target));
  }
}

}  // namespace
}  // namespace qhorn
