// The QuerySession facade: learning, verification, revision, history
// correction, caching behaviour.

#include "src/session/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/core/normalize.h"
#include "src/core/random_query.h"

namespace qhorn {
namespace {

TEST(SessionTest, LearnProducesTheIntendedQuery) {
  Query intended = Query::Parse("∀x1x2→x4 ∃x3", 4);
  QueryOracle user(intended);
  QuerySession session(4, &user);
  const Query& learned = session.Learn();
  EXPECT_TRUE(Equivalent(learned, intended));
  EXPECT_TRUE(session.current_query().has_value());
  EXPECT_GT(session.questions_asked(), 0);
  EXPECT_FALSE(session.history().empty());
}

TEST(SessionTest, VerifyAcceptsAndInstallsCandidate) {
  Query intended = Query::Parse("∃x1x2 ∃x3", 3);
  QueryOracle user(intended);
  QuerySession session(3, &user);
  VerificationReport report = session.Verify(intended);
  EXPECT_TRUE(report.accepted);
  ASSERT_TRUE(session.current_query().has_value());
  EXPECT_TRUE(Equivalent(*session.current_query(), intended));
}

TEST(SessionTest, VerifyRejectsWrongCandidateWithoutInstalling) {
  QueryOracle user(Query::Parse("∃x1x2 ∃x3", 3));
  QuerySession session(3, &user);
  VerificationReport report = session.Verify(Query::Parse("∃x1 ∃x3", 3));
  EXPECT_FALSE(report.accepted);
  EXPECT_FALSE(session.current_query().has_value());
}

TEST(SessionTest, ReviseConvergesFromACloseGuess) {
  Query intended = Query::Parse("∃x1x2 ∃x4", 4);
  QueryOracle user(intended);
  QuerySession session(4, &user);
  RevisionResult result = session.Revise(Query::Parse("∃x1x2x3 ∃x4", 4));
  EXPECT_TRUE(Equivalent(result.query, intended));
  EXPECT_TRUE(Equivalent(*session.current_query(), intended));
}

TEST(SessionTest, CachingReducesUserQuestions) {
  Query intended = Query::Parse("∀x1x2→x5 ∀x3x4→x5 ∃x1x2x3", 5);
  QueryOracle user1(intended);
  QuerySession with_cache(5, &user1);
  with_cache.Learn();

  // The same learner over a counting stage with no cache: every question,
  // repeated or not, reaches the user.
  QueryOracle user2(intended);
  CountingOracle without_cache(&user2);
  Query uncached = LearnRolePreserving(5, &without_cache).query;

  EXPECT_LE(with_cache.questions_asked(), without_cache.stats().questions);
  EXPECT_TRUE(Equivalent(*with_cache.current_query(), uncached));
  // What reached the user is the cache's log, each question once.
  EXPECT_EQ(static_cast<int64_t>(with_cache.user_transcript().size()),
            with_cache.questions_asked());
}

TEST(SessionTest, CorrectAndRelearnRecovers) {
  Query intended = Query::Parse("∀x1 ∃x2 ∃x3", 3);
  QueryOracle truth(intended);

  // The user fumbles the 5th question (the first lattice question).
  struct Flaky : MembershipOracle {
    MembershipOracle* inner;
    int64_t at;
    int64_t count = 0;
    bool IsAnswer(const TupleSet& q) override {
      bool v = inner->IsAnswer(q);
      return ++count == at ? !v : v;
    }
  } flaky{};
  flaky.inner = &truth;
  flaky.at = 5;

  QuerySession session(3, &flaky);
  const Query& wrong = session.Learn();
  ASSERT_FALSE(Equivalent(wrong, intended));

  // Find the flipped entry in the history (index 4) and correct it; the
  // user answers truthfully from here on (their mistake was one-off).
  flaky.at = -1;
  const Query& fixed = session.CorrectAndRelearn(4);
  EXPECT_TRUE(Equivalent(fixed, intended)) << fixed.ToString();
  EXPECT_FALSE(session.history().empty());
}

TEST(SessionTest, AnInconsistentCorrectionYieldsAQueryNotAnAbort) {
  // Flipping the last Learn answer of this session makes the existential
  // lattice search discover the empty tuple as a conjunction; the learner
  // must still return a query.
  const Query target = Query::Parse("∀x1x2→x4 ∃x3", 4);
  const Query mutant = Query::Parse("∀x1→x4 ∃x2x3", 4);
  QueryOracle user(target);
  QuerySession session(4, &user);
  session.Learn();
  ASSERT_EQ(session.history().size(), 26u);
  session.Verify(target);
  session.Verify(mutant);
  session.Revise(mutant);
  const Query& relearned = session.CorrectAndRelearn(25);
  EXPECT_EQ(relearned.n(), 4);
  for (const ExistentialConj& conj : relearned.existential()) {
    EXPECT_NE(conj.vars, 0u);
  }
}

/// A truthful user that records the questions reaching it. Once armed with
/// a replayed prefix, it counts each of that prefix's questions that
/// reaches it again.
class RecordingUser : public MembershipOracle {
 public:
  explicit RecordingUser(const Query& target) : truth_(target) {}

  bool IsAnswer(const TupleSet& question) override {
    Record(question);
    return truth_.IsAnswer(question);
  }
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    for (const TupleSet& q : questions) Record(q);
    truth_.IsAnswerBatch(questions, answers);
  }

  const std::vector<TupleSet>& asked() const { return asked_; }
  void Arm(std::vector<TupleSet> replayed) { replayed_ = std::move(replayed); }
  int64_t reasked() const { return reasked_; }

 private:
  void Record(const TupleSet& question) {
    asked_.push_back(question);
    if (std::find(replayed_.begin(), replayed_.end(), question) !=
        replayed_.end()) {
      ++reasked_;
    }
  }

  QueryOracle truth_;
  std::vector<TupleSet> asked_;
  std::vector<TupleSet> replayed_;
  int64_t reasked_ = 0;
};

TEST(SessionTest, CorrectAndRelearnNeverReasksTheReplayedPrefix) {
  // The §5 sweep: a truthful user, Learn, then a correction of the middle
  // history entry. The restart replays what the user answered up to where
  // that entry's question was first asked, with that answer flipped; none
  // of those questions may reach the user again, and no learner may abort
  // on two answers to one question.
  int reasking_sessions = 0;
  int64_t reasked = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const int n = 4 + static_cast<int>(seed % 5);
    RpOptions opts;
    opts.num_heads = static_cast<int>(rng.Range(0, 2));
    opts.theta = static_cast<int>(rng.Range(1, 2));
    opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
    const Query target = RandomRolePreserving(n, rng, opts);
    RecordingUser user(target);
    QuerySession session(n, &user);
    session.Learn();
    const size_t index = session.history().size() / 2;
    HistoryView::Iterator entry = session.history().begin();
    for (size_t i = 0; i < index; ++i) ++entry;
    const std::vector<TupleSet>& asked = user.asked();
    const auto first_ask = std::find(asked.begin(), asked.end(), (*entry).question);
    ASSERT_NE(first_ask, asked.end()) << "seed " << seed;
    user.Arm(std::vector<TupleSet>(asked.begin(), first_ask + 1));
    session.CorrectAndRelearn(index);
    EXPECT_TRUE(session.current_query().has_value()) << "seed " << seed;
    reasking_sessions += user.reasked() > 0;
    reasked += user.reasked();
  }
  EXPECT_EQ(reasking_sessions, 0);
  EXPECT_EQ(reasked, 0);
}

TEST(SessionTest, RandomizedEndToEnd) {
  for (uint64_t seed = 0; seed < 15; ++seed) {
    Rng rng(seed);
    RpOptions opts;
    opts.num_heads = static_cast<int>(rng.Range(0, 2));
    opts.num_conjunctions = static_cast<int>(rng.Range(1, 3));
    Query intended = RandomRolePreserving(6, rng, opts);
    QueryOracle user(intended);
    QuerySession session(6, &user);
    EXPECT_TRUE(Equivalent(session.Learn(), intended));
    EXPECT_TRUE(session.Verify(intended).accepted);
  }
}

TEST(SessionDeathTest, ArityMismatchAborts) {
  QueryOracle user(Query::Parse("∃x1", 2));
  QuerySession session(2, &user);
  EXPECT_DEATH(session.Verify(Query::Parse("∃x1", 3)), "arity");
}

}  // namespace
}  // namespace qhorn
