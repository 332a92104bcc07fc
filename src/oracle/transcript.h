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
// In a session a replay stage sits in one place: at the user boundary,
// below the question cache and counting (QuerySession::Restart), so every
// replayed question passes cache and counting exactly as when the user
// first answered it, and a question the prefix answered is never asked
// again.
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
      : prefix_(std::move(transcript)), fallback_(fallback) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  /// Moves the transcript out (empty once released); nothing is replayed
  /// after.
  std::vector<TranscriptEntry> TakeTranscript() {
    return std::exchange(prefix_, {});
  }

  /// Length of the transcript still held (0 once released).
  size_t held() const { return prefix_.size(); }

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

  std::vector<TranscriptEntry> prefix_;
  MembershipOracle* fallback_;
  size_t next_ = 0;
  bool diverged_ = false;
  int64_t replayed_ = 0;
  int64_t asked_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_TRANSCRIPT_H_
