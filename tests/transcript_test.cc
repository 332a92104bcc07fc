// Response history and correction replay (§5 "Noisy Users"): record every
// exchange, fix a wrong response, restart learning from the point of error
// without re-asking the unchanged prefix.

#include "src/oracle/transcript.h"

#include <gtest/gtest.h>

#include "src/core/normalize.h"
#include "src/learn/rp_learner.h"
#include "src/util/suspend.h"

namespace qhorn {
namespace {

TEST(TranscriptTest, RecordsEveryExchange) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  TranscriptOracle transcript(&inner);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_TRUE(transcript.entries()[0].response);
  EXPECT_FALSE(transcript.entries()[1].response);
  EXPECT_NE(transcript.ToString(2).find("non-answer"), std::string::npos);
}

TEST(TranscriptTest, CorrectFlipsAndTruncates) {
  QueryOracle inner(Query::Parse("∃x1", 2));
  TranscriptOracle transcript(&inner);
  transcript.IsAnswer(TupleSet::Parse({"10"}));
  transcript.IsAnswer(TupleSet::Parse({"01"}));
  transcript.IsAnswer(TupleSet::Parse({"11"}));
  transcript.Correct(1);
  ASSERT_EQ(transcript.entries().size(), 2u);
  EXPECT_TRUE(transcript.entries()[1].response);  // flipped
}

TEST(ReplayTest, ServesPrefixThenFallsThrough) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  CountingOracle counted_truth(&truth);
  ReplayOracle replay(recorded, &counted_truth);
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"10"})));
  EXPECT_FALSE(replay.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"11"})));  // beyond prefix
  EXPECT_EQ(replay.replayed(), 2);
  EXPECT_EQ(replay.asked(), 1);
  EXPECT_EQ(counted_truth.stats().questions, 1);
}

TEST(ReplayTest, DivergenceStopsReplay) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  ReplayOracle replay(recorded, &truth);
  // First question differs from the recording → all questions go to the
  // fallback, including ones that appear later in the recording.
  EXPECT_TRUE(replay.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_FALSE(replay.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_EQ(replay.replayed(), 0);
  EXPECT_EQ(replay.asked(), 2);
}

TEST(ReplayTest, ReleasesThePrefixOnceACallGoesPastIt) {
  QueryOracle truth(Query::Parse("∃x1", 2));
  const std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  // A batch served from the prefix and then past it: the prefix is gone.
  ReplayOracle replay(recorded, &truth);
  const std::vector<TupleSet> round = {
      TupleSet::Parse({"10"}), TupleSet::Parse({"01"}), TupleSet::Parse({"11"})};
  BitVec bits;
  replay.IsAnswerBatch(round, bits.Prepare(round.size()));
  EXPECT_EQ(replay.replayed(), 2);
  EXPECT_TRUE(replay.TakeTranscript().empty());

  // Single questions: the call that asks past the prefix releases it.
  ReplayOracle single(recorded, &truth);
  EXPECT_TRUE(single.IsAnswer(TupleSet::Parse({"10"})));
  EXPECT_FALSE(single.IsAnswer(TupleSet::Parse({"01"})));
  EXPECT_TRUE(single.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_TRUE(single.TakeTranscript().empty());

  // A diverged prefix is released as well.
  ReplayOracle diverged(recorded, &truth);
  EXPECT_TRUE(diverged.IsAnswer(TupleSet::Parse({"11"})));
  EXPECT_TRUE(diverged.TakeTranscript().empty());
}

TEST(ReplayTest, KeepsThePrefixWhileARoundBegunInsideItIsSuspended) {
  // The fallback suspends every round it sees, as a pending backend does.
  struct Suspending : MembershipOracle {
    bool IsAnswer(const TupleSet&) override { throw JobSuspended{}; }
  } suspending;
  const std::vector<TranscriptEntry> recorded = {
      {TupleSet::Parse({"10"}), true},
      {TupleSet::Parse({"01"}), false},
  };
  ReplayOracle replay(recorded, &suspending);
  const std::vector<TupleSet> round = {TupleSet::Parse({"10"}),
                                       TupleSet::Parse({"01"}),
                                       TupleSet::Parse({"11"})};
  BitVec bits;
  EXPECT_THROW(replay.IsAnswerBatch(round, bits.Prepare(round.size())),
               JobSuspended);
  const std::vector<TranscriptEntry> kept = replay.TakeTranscript();
  ASSERT_EQ(kept.size(), recorded.size());
  EXPECT_EQ(kept[0].question, recorded[0].question);
  EXPECT_EQ(kept[1].question, recorded[1].question);
}

// End-to-end §5 workflow: a user answers one question wrong, the learner
// mislearns; the user corrects the response in the history; re-running the
// learner over the corrected replay converges to the right query and only
// re-asks from the point of error.
TEST(CorrectionWorkflowTest, RelearnAfterCorrection) {
  Query target = Query::Parse("∀x1x2→x4 ∃x3", 4);
  QueryOracle truth(target);

  // Pass 1: the "user" (a flaky wrapper) answers question #3 incorrectly.
  struct FlakyOracle : MembershipOracle {
    MembershipOracle* inner;
    int flip_at;
    int asked = 0;
    bool IsAnswer(const TupleSet& q) override {
      bool v = inner->IsAnswer(q);
      return ++asked == flip_at ? !v : v;
    }
  } flaky;
  flaky.inner = &truth;
  flaky.flip_at = 3;

  TranscriptOracle history(&flaky);
  RpLearnerResult wrong = LearnRolePreserving(4, &history);
  ASSERT_FALSE(Equivalent(wrong.query, target));

  // The user reviews the history and fixes response #3 (index 2).
  history.Correct(2);

  // Pass 2: replay the corrected history; unanswered questions go to the
  // real user (truth oracle this time).
  CountingOracle fresh(&truth);
  ReplayOracle replay(history.entries(), &fresh);
  RpLearnerResult fixed = LearnRolePreserving(4, &replay);
  EXPECT_TRUE(Equivalent(fixed.query, target))
      << "relearned: " << fixed.query.ToString();
  // The unchanged prefix (2 correct answers + the corrected one) came from
  // the recording, not the user.
  EXPECT_GE(replay.replayed(), 3);
}

}  // namespace
}  // namespace qhorn
