// QuerySession — the high-level entry point a query interface embeds.
//
// It wires the pieces the paper's DataPlay front-end needs around a single
// user-facing oracle: question caching (never ask the same object twice),
// question counting, a full response history with correction-and-replay
// (§5), learning (§3), verification (§4) and revision (§6). The embedding
// UI implements MembershipOracle (pose the object to the user, return
// their label); everything else is this class.
//
// The question cache's log doubles as the *user-boundary transcript*:
// every question that reached the user, once, with its answer, in ask
// order. The service layer restarts a pending session from it (see
// TakeUserTranscript) rather than keeping a copy of its own.

#ifndef QHORN_SESSION_SESSION_H_
#define QHORN_SESSION_SESSION_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/learn/revision.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/pipeline.h"
#include "src/oracle/transcript.h"
#include "src/verify/verifier.h"

namespace qhorn {

/// One user's query-specification session over n propositions.
class QuerySession {
 public:
  struct Options {
    RpLearnerOptions learner;
  };

  /// `user` must outlive the session.
  QuerySession(int n, MembershipOracle* user);
  QuerySession(int n, MembershipOracle* user, Options options);

  int n() const { return n_; }

  /// Learns the user's query from membership questions (§3.2). The result
  /// is also retained as the session's current query.
  const Query& Learn();

  /// Verifies a user-authored query with the O(k) verification set (§4).
  /// On acceptance it becomes the session's current query.
  VerificationReport Verify(const Query& candidate);

  /// Revises a close-but-wrong query (§6); the result becomes current.
  RevisionResult Revise(const Query& candidate);

  /// The session's current query, if any phase has produced one.
  const std::optional<Query>& current_query() const { return current_; }

  /// Full question/answer history (in the order the user saw them).
  const std::vector<TranscriptEntry>& history() const {
    return transcript_->entries();
  }

  /// The user-boundary transcript: the questions that reached the user
  /// backend (cache misses, replayed ones included), each once, with its
  /// answer, in ask order — the cache's log. A round still awaiting its
  /// answers is not in it. That includes, after a correction in mid-round,
  /// the head of the corrected round that the restart re-served up to the
  /// corrected entry: it joins the log together with the re-asked rest.
  std::span<const TranscriptEntry> user_transcript() const {
    return cache_->log();
  }

  /// Moves every answered user-boundary exchange out, for a
  /// ResetWithUserReplay that must follow before the session is used
  /// again: the cache's log, or the replay stage's prefix when that is
  /// longer — a round re-served from the prefix and then suspended (the
  /// mid-round head above) leaves the log a prefix of it.
  std::vector<TranscriptEntry> TakeUserTranscript();

  /// The §5 workflow: the user flips their answer to history entry
  /// `index`; learning restarts from that point, replaying the unchanged
  /// prefix so the user only answers genuinely new questions.
  ///
  /// Not supported on pending-round continuation sessions (aborts with a
  /// diagnostic): this entry point relearns *synchronously inside the
  /// call*, so on a pending backend the relearn would immediately suspend
  /// and unwind out of the correction with the session half-rebuilt. The
  /// router owns the suspend/resume protocol, so mid-suspension corrections
  /// go through `SessionRouter::CorrectAnswer` instead — it truncates the
  /// user transcript at the flipped entry and restarts the job log through
  /// the ordinary resume path, which is allowed to suspend. The invariant
  /// that made the old blanket refusal load-bearing (never touch a
  /// mid-replay pipeline) still holds here: the refusal is an always-on
  /// QHORN_CHECK evaluated before any session state is touched. (Pinned by
  /// ContinuationEdgeTest.CorrectAndRelearnIsRefusedInContinuationMode.)
  const Query& CorrectAndRelearn(size_t index);

  /// Pending-round continuation support (SessionRouter): rebuilds the
  /// whole middleware chain from scratch with `user_prefix` replayed
  /// *at the user boundary* — a ReplayOracle directly above the user
  /// backend, below cache and counting — and forgets the current query.
  ///
  /// This is the re-entry point of the suspend/resume protocol: jobs are
  /// deterministic functions of the user's answers, so re-running them
  /// over fresh decorators with the answered rounds replayed reproduces
  /// the exact state a synchronous run would have reached — transcript,
  /// question counts and cache traffic included — without asking the user
  /// anything twice. (Contrast CorrectAndRelearn, whose replay sits above
  /// the cache precisely so re-asked questions are *not* re-counted.)
  void ResetWithUserReplay(std::vector<TranscriptEntry> user_prefix);

  /// Cumulative questions served by user-boundary replay stages across
  /// every resume attempt of this session's lifetime. Under fiber resume
  /// nothing is replayed (only a correction restart re-serves its
  /// prefix); under full-prefix replay resume the whole answered prefix is
  /// replayed per resume (O(rounds²) total). The resume-depth stress test
  /// asserts exactly this split.
  int64_t user_questions_replayed() const {
    return user_replayed_total_ + (user_replay_ ? user_replay_->replayed() : 0);
  }

  /// Questions that actually reached the user (cache misses).
  int64_t questions_asked() const { return counting_->stats().questions; }

  /// Full per-question statistics at the user boundary, including how many
  /// questions arrived inside batched rounds.
  const OracleStats& oracle_stats() const { return counting_->stats(); }

  /// Oracle rounds the session issued (a batch counts once): the number of
  /// user interactions, as opposed to the number of questions. Learners
  /// emit whole lattice levels / head sweeps per round, so this is much
  /// smaller than the question count.
  int64_t rounds() const { return transcript_->rounds(); }

  /// Cache traffic: identical questions served without re-asking the user.
  int64_t cache_hits() const { return cache_->hits(); }

 private:
  /// (Re)builds the middleware chain over the user backend, outermost
  /// first: transcript → [replay] → cache → counting → [user replay] →
  /// user. A non-empty `replay_prefix` inserts a ReplayOracle between the
  /// cache and the transcript for the §5 correction workflow (served
  /// questions are not re-counted); a non-empty `user_prefix` inserts one
  /// directly above the user for continuation re-entry (served questions
  /// pass through every decorator, exactly as when first asked).
  void BuildPipeline(std::vector<TranscriptEntry> replay_prefix,
                     std::vector<TranscriptEntry> user_prefix);

  int n_;
  MembershipOracle* user_;
  Options options_;
  bool continuation_mode_ = false;  // ResetWithUserReplay has been used
  // Owning middleware chain; the typed pointers below alias its stages.
  OraclePipeline pipeline_;
  CountingOracle* counting_ = nullptr;
  CachingOracle* cache_ = nullptr;
  TranscriptOracle* transcript_ = nullptr;
  ReplayOracle* user_replay_ = nullptr;  // user-boundary stage, if armed
  MembershipOracle* top_ = nullptr;
  std::optional<Query> current_;
  // Replayed-question count harvested from retired user-boundary replay
  // stages (each pipeline rebuild discards the live stage).
  int64_t user_replayed_total_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SESSION_H_
