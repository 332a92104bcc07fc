// The pending-round continuation stress contract: 256 sessions over real
// (pending) user oracles on a 4-lane router, every session suspending at
// least twice, answers provided out of order and in partial sweeps — all
// sessions complete, no thread is ever parked per blocked session (the
// router's executor is the only thread pool: ≤ 5 threads total), and
// every per-session observable is bit-identical to a single-threaded
// synchronous replay of the same jobs over the same answers. The sharded
// variant drives the same fleet through routers with 1, 2 and 8 lock
// shards and pins its fingerprints to the synchronous arm too.
//
// Runs under the tsan preset with QHORN_THREADS=8 in CI (the router's
// lane count is pinned to 4 explicitly; QHORN_THREADS exercises the
// executor default elsewhere). CTest label: continuation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/session/router.h"
#include "src/util/bit_span.h"
#include "tests/session_fingerprint.h"

namespace qhorn {
namespace {

struct SessionPlan {
  Query target;
  // 0 = learn, 1 = verify(target), 2 = revise(target).
  std::vector<int> jobs;
};

SessionPlan MakePlan(int n, uint64_t seed) {
  Rng rng(seed);
  RpOptions opts;
  opts.num_heads = static_cast<int>(rng.Range(0, 1));
  opts.theta = 2;
  opts.num_conjunctions = static_cast<int>(rng.Range(1, 2));
  opts.conj_size_max = std::min(3, n);
  SessionPlan plan;
  plan.target = RandomRolePreserving(n, rng, opts);
  plan.jobs.push_back(0);  // always learn first
  if (rng.Chance(0.5)) {
    plan.jobs.push_back(1 + static_cast<int>(rng.Range(0, 1)));
  }
  return plan;
}

void SubmitPlan(SessionRouter& router, SessionRouter::SessionId id,
                const SessionPlan& plan) {
  for (int job : plan.jobs) {
    switch (job) {
      case 0:
        ASSERT_TRUE(router.SubmitLearn(id));
        break;
      case 1:
        ASSERT_TRUE(router.SubmitVerify(id, plan.target));
        break;
      default:
        ASSERT_TRUE(router.SubmitRevise(id, plan.target));
        break;
    }
  }
}

/// The synchronous reference: the plan's jobs over a bare QuerySession
/// whose user answers inline.
std::string SynchronousFingerprint(int n, const SessionPlan& plan) {
  QueryOracle truth(plan.target);
  QuerySession session(n, &truth);
  for (int job : plan.jobs) {
    switch (job) {
      case 0:
        session.Learn();
        break;
      case 1:
        session.Verify(plan.target);
        break;
      default:
        session.Revise(plan.target);
        break;
    }
  }
  return SessionFingerprint(session);
}

TEST(ContinuationStressTest, TwoHundredFiftySixSessionsOnFourLanes) {
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 6;

  std::vector<SessionPlan> plans;
  plans.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    plans.push_back(MakePlan(n, 5000 + static_cast<uint64_t>(s)));
  }

  SessionRouter::Options opts;
  opts.threads = kLanes;
  SessionRouter router(opts);
  ASSERT_EQ(router.executor()->concurrency(), kLanes)
      << "the router's pool is exactly its session lanes";

  // Ground truth per session — also the answer source for the sync arm,
  // so both arms see the exact same labelling of every question.
  std::vector<std::unique_ptr<QueryOracle>> truths;
  std::map<SessionRouter::SessionId, size_t> plan_of;
  std::vector<SessionRouter::SessionId> ids;
  // Thread-parking audit: every thread that ever runs a session job. A
  // raw job is re-run on every resume attempt, so inserting into a set is
  // naturally idempotent.
  std::mutex thread_ids_mutex;
  std::set<std::thread::id> job_threads;
  for (int s = 0; s < kSessions; ++s) {
    const SessionPlan& plan = plans[static_cast<size_t>(s)];
    truths.push_back(std::make_unique<QueryOracle>(plan.target));
    SessionRouter::SessionId id = router.OpenPending(n);
    plan_of[id] = static_cast<size_t>(s);
    ids.push_back(id);
    router.Submit(id, [&thread_ids_mutex, &job_threads](QuerySession&) {
      std::lock_guard<std::mutex> lock(thread_ids_mutex);
      job_threads.insert(std::this_thread::get_id());
    });
    SubmitPlan(router, id, plan);
  }

  // The embedding-server loop, adversarially scheduled: each sweep
  // shuffles the pending rounds and answers only a random ~2/3 of them
  // (at least one), so sessions resume out of order and interleave with
  // sessions that are still blocked.
  Rng sched(99);
  int64_t sweeps = 0;
  // The poll delivers each round once: the rounds a sweep leaves
  // unanswered stay here, so every sweep deals from all awaiting rounds.
  std::map<SessionRouter::SessionId, PendingRound> outstanding;
  for (;;) {
    router.Drain();
    for (PendingRound& round : router.PendingRounds()) {
      const SessionRouter::SessionId id = round.session_id;
      ASSERT_TRUE(outstanding.try_emplace(id, std::move(round)).second)
          << "session " << id << " was delivered a second round";
    }
    if (outstanding.empty()) break;
    std::vector<PendingRound*> rounds;
    for (auto& [id, round] : outstanding) rounds.push_back(&round);
    for (size_t i = rounds.size(); i > 1; --i) {
      std::swap(rounds[i - 1],
                rounds[static_cast<size_t>(sched.Range(
                    0, static_cast<int>(i) - 1))]);
    }
    size_t take = std::max<size_t>(1, (rounds.size() * 2) / 3);
    for (size_t i = 0; i < take; ++i) {
      PendingRound& round = *rounds[i];
      const SessionRouter::SessionId id = round.session_id;
      QueryOracle* truth = truths[plan_of.at(id)].get();
      BitVec bits;
      BitSpan span = bits.Prepare(round.questions.size());
      truth->IsAnswerBatch(round.questions, span);
      ASSERT_EQ(router.ProvideAnswers(id, round.round_id, span),
                ProvideOutcome::kResumed);
      outstanding.erase(id);
    }
    ++sweeps;
  }
  EXPECT_GT(sweeps, 2);

  // Everything completed, nobody is blocked, and no session ever had a
  // thread parked for it: the only threads that ever ran jobs are the
  // executor's own lanes (4 workers; the draining test thread makes 5).
  ServiceStats stats = router.stats();
  EXPECT_EQ(stats.sessions, kSessions);
  EXPECT_EQ(stats.awaiting_sessions, 0);
  EXPECT_GE(stats.suspensions, 2 * kSessions);
  {
    std::lock_guard<std::mutex> lock(thread_ids_mutex);
    EXPECT_LE(job_threads.size(), static_cast<size_t>(kLanes + 1))
        << "blocked sessions must not spawn or park threads";
  }
  for (SessionRouter::SessionId id : ids) {
    EXPECT_EQ(router.status(id), SessionStatus::kIdle);
    EXPECT_GE(router.suspensions(id), 2)
        << "session " << id << " must have yielded its lane at least twice";
  }

  // Single-threaded synchronous replay: the same jobs over the same
  // answers, a bare session whose user answers inline. Bit-identical
  // observables.
  for (int s = 0; s < kSessions; ++s) {
    QuerySession& pending_session =
        router.session(ids[static_cast<size_t>(s)]);
    ASSERT_EQ(SessionFingerprint(pending_session),
              SynchronousFingerprint(n, plans[static_cast<size_t>(s)]))
        << "session " << s << " diverged from its synchronous replay";
    ASSERT_TRUE(pending_session.current_query().has_value());
    EXPECT_TRUE(Equivalent(*pending_session.current_query(),
                           plans[static_cast<size_t>(s)].target));
  }
}

TEST(ContinuationStressTest, RouterShardsMatchSynchronousAcrossShardCounts) {
  // The same 256-session plan fleet, adversarially scheduled, driven
  // through routers with 1, 2 and 8 lock shards — ids and the combined
  // poll cross the shard placement and the per-shard announcement
  // queues. Every arm's per-session fingerprints must be
  // bit-identical to a single-threaded synchronous replay: shard count is
  // a throughput knob, never an observable.
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 6;

  std::vector<SessionPlan> plans;
  plans.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    plans.push_back(MakePlan(n, 6000 + static_cast<uint64_t>(s)));
  }

  // Synchronous reference arm: inline answers over bare sessions.
  std::vector<std::string> reference;
  for (const SessionPlan& plan : plans) {
    reference.push_back(SynchronousFingerprint(n, plan));
  }

  for (int shards : {1, 2, 8}) {
    SessionRouter::Options opts;
    opts.shards = shards;
    opts.threads = kLanes;
    SessionRouter router(opts);

    std::vector<std::unique_ptr<QueryOracle>> truths;
    std::map<SessionRouter::SessionId, size_t> plan_of;
    std::vector<SessionRouter::SessionId> ids;
    for (int s = 0; s < kSessions; ++s) {
      const SessionPlan& plan = plans[static_cast<size_t>(s)];
      truths.push_back(std::make_unique<QueryOracle>(plan.target));
      SessionRouter::SessionId id = router.OpenPending(n);
      plan_of[id] = static_cast<size_t>(s);
      ids.push_back(id);
      SubmitPlan(router, id, plan);
    }

    // Same adversarial sweep as the bare-router stress: shuffled rounds,
    // only ~2/3 answered per sweep, resumes racing still-parked sessions.
    // Delivered rounds a sweep leaves unanswered are kept, as above.
    Rng sched(131 + static_cast<uint64_t>(shards));
    std::map<SessionRouter::SessionId, PendingRound> outstanding;
    for (;;) {
      router.Drain();
      for (PendingRound& round : router.PendingRounds()) {
        const SessionRouter::SessionId id = round.session_id;
        ASSERT_TRUE(outstanding.try_emplace(id, std::move(round)).second)
            << "session " << id << " was delivered a second round";
      }
      if (outstanding.empty()) break;
      std::vector<PendingRound*> rounds;
      for (auto& [id, round] : outstanding) rounds.push_back(&round);
      for (size_t i = rounds.size(); i > 1; --i) {
        std::swap(rounds[i - 1],
                  rounds[static_cast<size_t>(sched.Range(
                      0, static_cast<int>(i) - 1))]);
      }
      size_t take = std::max<size_t>(1, (rounds.size() * 2) / 3);
      for (size_t i = 0; i < take; ++i) {
        PendingRound& round = *rounds[i];
        const SessionRouter::SessionId id = round.session_id;
        QueryOracle* truth = truths[plan_of.at(id)].get();
        BitVec bits;
        BitSpan span = bits.Prepare(round.questions.size());
        truth->IsAnswerBatch(round.questions, span);
        ASSERT_EQ(router.ProvideAnswers(id, round.round_id, span),
                  ProvideOutcome::kResumed);
        outstanding.erase(id);
      }
    }

    ServiceStats stats = router.stats();
    EXPECT_EQ(stats.sessions, kSessions);
    EXPECT_EQ(stats.awaiting_sessions, 0);
    for (int s = 0; s < kSessions; ++s) {
      ASSERT_EQ(SessionFingerprint(router.session(ids[static_cast<size_t>(s)])),
                reference[static_cast<size_t>(s)])
          << "session " << s << " diverged from the synchronous arm at "
          << shards << " shards";
    }
  }
}

TEST(ContinuationStressTest, ResumeDepthReplaysNothingUnderFiberResume) {
  // The resume-depth gate of the default protocol. 256 pending learn
  // sessions on 4 lanes, every answered round a separate suspension: under
  // fiber resume the answers feed the parked frame directly, so *nothing*
  // crosses a user-boundary replay stage over any session's whole
  // lifetime — ServiceStats.replayed_questions == 0, however deep the
  // sessions go. A control session that corrects an answer certifies the
  // counter really moves when a session is rebuilt over a replayed prefix
  // (so this test would actually catch a silent fallback to replaying
  // resumes).
  constexpr int kSessions = 256;
  constexpr int kLanes = 4;
  const int n = 8;

  std::vector<Query> targets;
  targets.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    Rng rng(7000 + static_cast<uint64_t>(s));
    RpOptions qopts;
    qopts.num_heads = 1;
    qopts.theta = 2;
    qopts.num_conjunctions = 3;
    qopts.conj_size_max = 4;
    targets.push_back(RandomRolePreserving(n, rng, qopts));
  }

  {
    SessionRouter::Options opts;
    opts.threads = kLanes;
    SessionRouter router(opts);
    std::vector<std::unique_ptr<QueryOracle>> truths;
    std::vector<SessionRouter::SessionId> ids;
    std::map<SessionRouter::SessionId, size_t> index_of;
    for (int s = 0; s < kSessions; ++s) {
      truths.push_back(
          std::make_unique<QueryOracle>(targets[static_cast<size_t>(s)]));
      SessionRouter::SessionId id = router.OpenPending(n);
      index_of[id] = static_cast<size_t>(s);
      ids.push_back(id);
      EXPECT_TRUE(router.SubmitLearn(id));
    }
    for (;;) {
      router.Drain();
      std::vector<PendingRound> rounds = router.PendingRounds();
      if (rounds.empty()) break;
      for (PendingRound& round : rounds) {
        size_t idx = index_of.at(round.session_id);
        BitVec bits;
        BitSpan span = bits.Prepare(round.questions.size());
        truths[idx]->IsAnswerBatch(round.questions, span);
        EXPECT_EQ(router.ProvideAnswers(round.session_id, round.round_id, span),
                  ProvideOutcome::kResumed);
      }
    }
    int64_t total_suspensions = 0;
    for (int s = 0; s < kSessions; ++s) {
      size_t idx = static_cast<size_t>(s);
      EXPECT_EQ(router.status(ids[idx]), SessionStatus::kIdle);
      EXPECT_TRUE(Equivalent(*router.session(ids[idx]).current_query(),
                             targets[idx]));
      const int64_t suspensions = router.suspensions(ids[idx]);
      EXPECT_GE(suspensions, 8)
          << "session " << s << " must suspend per user round, many times";
      total_suspensions += suspensions;
    }
    ASSERT_EQ(router.stats().replayed_questions, 0)
        << "sessions replayed questions despite their parked stacks";
    // Deep sessions on average: the fleet's resume depth is what makes the
    // zero-replay bound interesting (≥ 64 rounds mean, so a quadratic
    // replaying resume would replay ≥ ~32× what the user answered).
    EXPECT_GE(total_suspensions, 64 * kSessions);
  }

  // Control: a correction restart is the one path that still replays —
  // the session restarts over the corrected prefix served at the user
  // boundary — so a session that answers its first round with a
  // lie and then corrects it must report replayed questions, through the
  // same counter the gate above reads.
  SessionRouter::Options opts;
  opts.threads = kLanes;
  SessionRouter router(opts);
  QueryOracle truth(targets[0]);
  SessionRouter::SessionId id = router.OpenPending(n);
  ASSERT_TRUE(router.SubmitLearn(id));
  router.Drain();
  std::optional<PendingRound> round0 = router.pending_round(id);
  ASSERT_TRUE(round0.has_value());
  BitVec bits;
  BitSpan span = bits.Prepare(round0->questions.size());
  truth.IsAnswerBatch(round0->questions, span);
  const size_t last = round0->questions.size() - 1;
  span.Set(last, !span.Get(last));
  ASSERT_EQ(router.ProvideAnswers(id, round0->round_id, span),
            ProvideOutcome::kResumed);
  router.Drain();
  ASSERT_EQ(router.status(id), SessionStatus::kAwaitingUser);
  ASSERT_EQ(router.CorrectAnswer(id, last), ProvideOutcome::kResumed);
  for (;;) {
    router.Drain();
    std::optional<PendingRound> round = router.pending_round(id);
    if (!round.has_value()) break;
    span = bits.Prepare(round->questions.size());
    truth.IsAnswerBatch(round->questions, span);
    ASSERT_EQ(router.ProvideAnswers(id, round->round_id, span),
              ProvideOutcome::kResumed);
  }
  EXPECT_EQ(router.status(id), SessionStatus::kIdle);
  EXPECT_TRUE(Equivalent(*router.session(id).current_query(), targets[0]));
  EXPECT_GT(router.stats().replayed_questions, 0)
      << "a correction restart replayed nothing: the zero-replay gate "
         "above could not fail";
}

}  // namespace
}  // namespace qhorn
