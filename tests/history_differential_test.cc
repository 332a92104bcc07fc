// The session history against a standalone recorder: QuerySession keeps its
// history as positions into the question cache's log (and into the
// corrected prefix after a library correction) and resolves them on read.
// Every test here runs the same learners over a reference stack that
// records full entries — TranscriptOracle → CachingOracle → CountingOracle
// → user, with a ReplayOracle where the session would have one — and
// asserts the two histories agree entry for entry: question, response and
// round id.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "src/learn/revision.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/pipeline.h"
#include "src/oracle/transcript.h"
#include "src/session/router.h"
#include "src/session/session.h"
#include "src/util/suspend.h"
#include "src/verify/verifier.h"

namespace qhorn {
namespace {

/// The recording stack the session's history must equal. `user_prefix`,
/// when non-empty, is served at the user boundary first (a router
/// correction's restart); `replay_prefix` above the cache (a library
/// correction's restart).
struct Reference {
  Reference(MembershipOracle* user, std::vector<TranscriptEntry> user_prefix,
            std::vector<TranscriptEntry> replay_prefix = {})
      : pipeline(user) {
    if (!user_prefix.empty()) {
      pipeline.Push<ReplayOracle>(std::move(user_prefix));
    }
    counting = pipeline.Push<CountingOracle>();
    pipeline.Push<CachingOracle>();
    if (!replay_prefix.empty()) {
      pipeline.Push<ReplayOracle>(std::move(replay_prefix));
    }
    transcript = pipeline.Push<TranscriptOracle>();
  }

  MembershipOracle* top() const { return pipeline.top(); }

  OraclePipeline pipeline;
  CountingOracle* counting = nullptr;
  TranscriptOracle* transcript = nullptr;
};

/// `session.history()` equals `expected` entry for entry — or, with
/// `prefix_only`, is a prefix of it (a session awaiting its user has
/// recorded only the rounds before the pending one).
void ExpectSameHistory(const QuerySession& session,
                       const std::vector<TranscriptEntry>& expected,
                       const std::string& where, bool prefix_only = false) {
  HistoryView history = session.history();
  if (prefix_only) {
    ASSERT_LE(history.size(), expected.size()) << where;
  } else {
    ASSERT_EQ(history.size(), expected.size()) << where;
  }
  size_t i = 0;
  for (HistoryEntry e : history) {
    ASSERT_EQ(e.question, expected[i].question) << where << ", entry " << i;
    ASSERT_EQ(e.response, expected[i].response) << where << ", entry " << i;
    ASSERT_EQ(e.round, expected[i].round) << where << ", entry " << i;
    ++i;
  }
  ASSERT_EQ(i, history.size()) << where;
  // Rounds are never empty, so the last entry's round closes the count.
  EXPECT_EQ(session.rounds(),
            history.empty() ? 0 : expected[history.size() - 1].round + 1)
      << where;
}

void ExpectSameHistory(const QuerySession& session, const Reference& ref,
                       const std::string& where) {
  ExpectSameHistory(session, ref.transcript->entries(), where);
  EXPECT_EQ(session.rounds(), ref.transcript->rounds()) << where;
  EXPECT_EQ(session.questions_asked(), ref.counting->stats().questions)
      << where;
}

QuerySession::Options LearnerOptions(bool speculative) {
  QuerySession::Options options;
  options.learner.existential.speculative_batching = speculative;
  options.learner.universal.speculative_batching = speculative;
  return options;
}

struct Case {
  int n;
  const char* target;
  const char* mutant;
};

constexpr Case kCases[] = {
    {4, "∀x1x2→x4 ∃x3", "∀x1→x4 ∃x2x3"},
    {5, "∃x1x2 ∃x4 ∃x3x5", "∃x1x2x3 ∃x4"},
    {5, "∀x1x2→x5 ∀x3x4→x5 ∃x1x2x3", "∀x1x2→x5 ∃x1x3"},
    {6, "∀x1→x5 ∀x2x3→x6 ∃x1x4 ∃x2x6", "∀x1→x5 ∃x1x4x2"},
};

TEST(HistoryDifferentialTest, LearnVerifyReviseMatchTheRecorder) {
  for (bool speculative : {false, true}) {
    const QuerySession::Options options = LearnerOptions(speculative);
    for (const Case& c : kCases) {
      const std::string where = std::string(c.target) + " speculative=" +
                                std::to_string(speculative);
      const Query target = Query::Parse(c.target, c.n);
      const Query mutant = Query::Parse(c.mutant, c.n);
      QueryOracle user(target);
      QuerySession session(c.n, &user, options);
      QueryOracle ref_user(target);
      Reference ref(&ref_user, {});

      session.Learn();
      LearnRolePreserving(c.n, ref.top(), options.learner);
      ExpectSameHistory(session, ref, where + " after Learn");

      session.Verify(target);
      VerifyQuery(target, ref.top());
      session.Verify(mutant);
      VerifyQuery(mutant, ref.top());
      ExpectSameHistory(session, ref, where + " after Verify");

      session.Revise(mutant);
      ReviseQuery(mutant, ref.top(), options.learner);
      ExpectSameHistory(session, ref, where + " after Revise");
      EXPECT_GT(session.cache_hits(), 0) << where;
    }
  }
}

TEST(HistoryDifferentialTest, LibraryCorrectionMatchesTheRecorder) {
  // CorrectAndRelearn replays the corrected history above a fresh cache:
  // the reference is today's recorder with Correct() applied, behind the
  // same replay stage. Corrections at entry 0 and mid-Learn make the replay
  // diverge inside a round (a replayed head, a forwarded tail); one at the
  // last entry replays all of Learn. A second correction resolves the
  // first one's replayed entries again.
  for (bool speculative : {false, true}) {
    const QuerySession::Options options = LearnerOptions(speculative);
    for (const Case& c : kCases) {
      const Query target = Query::Parse(c.target, c.n);
      const Query mutant = Query::Parse(c.mutant, c.n);
      size_t learned = 0;
      size_t length = 0;
      {
        QueryOracle user(target);
        QuerySession session(c.n, &user, options);
        session.Learn();
        learned = session.history().size();
        session.Verify(mutant);
        length = session.history().size();
      }
      for (size_t index : {size_t{0}, learned / 2, length - 1}) {
        const std::string where = std::string(c.target) + " speculative=" +
                                  std::to_string(speculative) +
                                  " correct=" + std::to_string(index);
        QueryOracle user(target);
        QuerySession session(c.n, &user, options);
        QueryOracle ref_user(target);
        auto ref = std::make_unique<Reference>(&ref_user,
                                               std::vector<TranscriptEntry>());
        session.Learn();
        session.Verify(mutant);
        LearnRolePreserving(c.n, ref->top(), options.learner);
        VerifyQuery(mutant, ref->top());
        ExpectSameHistory(session, *ref, where + " before");

        for (size_t fix : {index, index / 2}) {
          session.CorrectAndRelearn(fix);
          ref->transcript->Correct(fix);
          std::vector<TranscriptEntry> prefix = ref->transcript->entries();
          auto next = std::make_unique<Reference>(
              &ref_user, std::vector<TranscriptEntry>(), std::move(prefix));
          LearnRolePreserving(c.n, next->top(), options.learner);
          ref = std::move(next);
          ExpectSameHistory(session, ref->transcript->entries(),
                            where + " after correcting " + std::to_string(fix));
          EXPECT_EQ(session.rounds(), ref->transcript->rounds()) << where;
          EXPECT_EQ(session.questions_asked(), ref->counting->stats().questions)
              << where;
        }
      }
    }
  }
}

/// A user backend that answers from `truth` until armed, then throws
/// JobSuspended on its `in`-th round after arming (1 = the next one).
class SuspendingUser : public MembershipOracle {
 public:
  explicit SuspendingUser(MembershipOracle* truth) : truth_(truth) {}

  void Arm(int in) { at_ = rounds_ + in; }

  bool IsAnswer(const TupleSet& question) override {
    Tick();
    return truth_->IsAnswer(question);
  }
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    Tick();
    truth_->IsAnswerBatch(questions, answers);
  }

 private:
  void Tick() {
    if (++rounds_ == at_) throw JobSuspended{};
  }

  MembershipOracle* truth_;
  int rounds_ = 0;
  int at_ = 0;
};

TEST(HistoryDifferentialTest, SuspendedRoundLeavesTheHistoryUnchanged) {
  const Query target = Query::Parse("∀x1x2→x5 ∀x3x4→x5 ∃x1x2x3", 5);
  QueryOracle truth(target);
  for (int at : {1, 2, 5, 9}) {
    const std::string where = "suspend at user round " + std::to_string(at);
    SuspendingUser user(&truth);
    SuspendingUser ref_user(&truth);
    user.Arm(at);
    ref_user.Arm(at);
    QuerySession session(5, &user);
    Reference ref(&ref_user, {});
    EXPECT_THROW(session.Learn(), JobSuspended) << where;
    EXPECT_THROW(LearnRolePreserving(5, ref.top()), JobSuspended) << where;
    ExpectSameHistory(session, ref, where);
  }

  // After a library correction the replay stage serves the head of the
  // round where the replay ends from the corrected prefix, then forwards
  // the tail; a tail that suspends must take the recorded head back out.
  for (int at : {1, 2}) {
    const std::string where =
        "suspend after a correction at user round " + std::to_string(at);
    SuspendingUser user(&truth);
    SuspendingUser ref_user(&truth);
    QuerySession session(5, &user);
    Reference ref(&ref_user, {});
    session.Learn();
    LearnRolePreserving(5, ref.top());
    const size_t index = session.history().size() / 2;
    user.Arm(at);
    ref_user.Arm(at);
    EXPECT_THROW(session.CorrectAndRelearn(index), JobSuspended) << where;
    ref.transcript->Correct(index);
    Reference next(&ref_user, {}, ref.transcript->entries());
    EXPECT_THROW(LearnRolePreserving(5, next.top()), JobSuspended) << where;
    ExpectSameHistory(session, next, where);
    EXPECT_FALSE(session.history().empty()) << where;
  }
}

TEST(HistoryDifferentialTest, RouterSessionsMatchTheRecorderAroundCorrections) {
  // A pending session's history is the recorder's over a user who gave the
  // answers the test gave (replayed at the user boundary) and then tells
  // the truth — a prefix of it while a round awaits, all of it at the end.
  // Corrections: back to the truth at the end of round 0, then a lie at
  // entry 0 (the rest of round 0 is re-asked: a round that begins inside
  // the replayed prefix), then the truth again.
  const int n = 6;
  const Query target = Query::Parse("∀x1→x5 ∀x2x3→x6 ∃x1x4 ∃x2x6", n);
  const Query mutant = Query::Parse("∀x1→x5 ∃x1x4x2", n);
  SessionRouter::Options opts;
  opts.threads = 1;
  SessionRouter router(opts);
  QueryOracle truth(target);
  const SessionRouter::SessionId id = router.OpenPending(n);
  ASSERT_TRUE(router.SubmitLearn(id));
  ASSERT_TRUE(router.SubmitVerify(id, mutant));
  router.Drain();

  std::vector<TranscriptEntry> given;  // the user-boundary answers
  auto check = [&](const std::string& when, bool awaiting) {
    QueryOracle ref_truth(target);
    Reference ref(&ref_truth, given);
    LearnRolePreserving(n, ref.top());
    VerifyQuery(mutant, ref.top());
    ExpectSameHistory(router.session(id), ref.transcript->entries(),
                      when, awaiting);
    EXPECT_EQ(router.status(id), awaiting ? SessionStatus::kAwaitingUser
                                          : SessionStatus::kIdle)
        << when;
  };
  auto answer = [&](bool flip_last) {
    std::optional<PendingRound> round = router.pending_round(id);
    ASSERT_TRUE(round.has_value());
    BitVec bits;
    BitSpan span = bits.Prepare(round->questions.size());
    truth.IsAnswerBatch(round->questions, span);
    const size_t last = round->questions.size() - 1;
    if (flip_last) span.Set(last, !span.Get(last));
    for (size_t i = 0; i < round->questions.size(); ++i) {
      given.push_back(TranscriptEntry{round->questions[i], span.Get(i), 0});
    }
    ASSERT_EQ(router.ProvideAnswers(id, round->round_id, span),
              ProvideOutcome::kResumed);
    router.Drain();
  };
  auto correct = [&](size_t index) {
    ASSERT_EQ(router.CorrectAnswer(id, index), ProvideOutcome::kResumed);
    given.resize(index + 1);
    given[index].response = !given[index].response;
    router.Drain();
  };

  check("before any answer", true);
  answer(/*flip_last=*/true);
  const size_t round0 = given.size();
  ASSERT_GE(round0, 2u);
  answer(/*flip_last=*/false);
  check("after two rounds", true);
  correct(round0 - 1);
  check("after correcting the end of round 0", true);
  correct(0);
  check("after correcting entry 0", true);
  correct(0);
  check("after correcting entry 0 back", true);
  while (router.pending_round(id).has_value()) answer(/*flip_last=*/false);
  check("at the end", false);
  EXPECT_EQ(router.stats().corrections, 3);
}

}  // namespace
}  // namespace qhorn
