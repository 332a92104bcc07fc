// Response history and correction-replay (§5, "Noisy Users").
//
// The paper suggests that a good interface keeps a history of the user's
// responses so an incorrect response can be fixed, "triggering the query
// learning algorithm to restart query learning from the point of error".
// TranscriptOracle records every (question, response); Correct() flips a
// recorded response; ReplayOracle then serves the corrected prefix verbatim
// and falls through to the ground-truth oracle afterwards — exactly the
// restart-from-the-point-of-error workflow.
//
// Both decorators are batch-aware: a batched round records (or replays)
// its questions in order, and each transcript entry remembers which round
// it arrived in, so a UI can render "round 7 asked these 12 questions
// together" while correction indices keep addressing single questions.

#ifndef QHORN_ORACLE_TRANSCRIPT_H_
#define QHORN_ORACLE_TRANSCRIPT_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/oracle/history.h"
#include "src/oracle/oracle.h"

namespace qhorn {

/// Decorator that records the full exchange history.
class TranscriptOracle : public MembershipOracle {
 public:
  explicit TranscriptOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  const std::vector<TranscriptEntry>& entries() const { return entries_; }

  /// Oracle rounds recorded so far (single questions and batches alike).
  int64_t rounds() const { return rounds_; }

  /// Flips the recorded response at `index` (0-based). Later entries are
  /// discarded: they were computed from the bad answer and must be re-asked.
  void Correct(size_t index);

  /// Renders the history, e.g. for the examples' console output.
  std::string ToString(int n) const;

 private:
  MembershipOracle* inner_;
  std::vector<TranscriptEntry> entries_;
  int64_t rounds_ = 0;
};

/// Serves recorded responses for questions that match the transcript
/// prefix in order; once the prefix is exhausted (or a question deviates),
/// defers to the fallback oracle. Used to re-run a learner after a
/// correction without re-asking the user everything.
///
/// The prefix is released as soon as a call returns with it used up
/// (exhausted or diverged): nothing is replayed after that. A call that
/// does not return — a round that began inside the prefix and suspended —
/// keeps it, so the suspended run's answered exchanges can still be taken.
class ReplayOracle : public MembershipOracle {
 public:
  ReplayOracle(std::vector<TranscriptEntry> transcript,
               MembershipOracle* fallback)
      : owned_(std::move(transcript)), prefix_(owned_), fallback_(fallback) {}

  /// Stage-order constructor (inner first) for OraclePipeline::Push.
  ReplayOracle(MembershipOracle* fallback,
               std::vector<TranscriptEntry> transcript)
      : ReplayOracle(std::move(transcript), fallback) {}

  /// Replays a prefix the caller keeps alive, and records each round it
  /// answers into `history`: a served question as its prefix index tagged
  /// QuestionHistory::kPrefixTag, and the round's start. The fallback
  /// records the positions of the questions it answers, without rounds.
  ReplayOracle(MembershipOracle* fallback,
               std::span<const TranscriptEntry> prefix,
               QuestionHistory* history)
      : prefix_(prefix), fallback_(fallback), history_(history) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  /// Moves the owned transcript out (empty once released); nothing is
  /// replayed after.
  std::vector<TranscriptEntry> TakeTranscript() {
    diverged_ = true;
    prefix_ = {};
    return std::move(owned_);
  }

  /// Questions served from the recorded transcript.
  int64_t replayed() const { return replayed_; }
  /// Questions that had to go to the fallback oracle (i.e. to the user).
  int64_t asked() const { return asked_; }

 private:
  /// Serves `question` from the transcript prefix if it still matches.
  /// Returns false when the question must go to the fallback instead.
  bool TryReplay(const TupleSet& question, bool* response);
  /// After a call returns: drops the prefix once nothing is left to serve.
  void ReleaseIfUsedUp();

  std::vector<TranscriptEntry> owned_;
  std::span<const TranscriptEntry> prefix_;  // owned_, or the caller's
  MembershipOracle* fallback_;
  QuestionHistory* history_ = nullptr;
  size_t next_ = 0;
  bool diverged_ = false;
  int64_t replayed_ = 0;
  int64_t asked_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_TRANSCRIPT_H_
