// PendingOracle — the real-user backend for pending-round continuations.
//
// Every other backend answers a round synchronously. A real user does not:
// their answers arrive seconds to minutes later, over whatever transport
// the embedding server uses. PendingOracle models exactly that: any round
// reaching it is by definition "not answerable synchronously", so it
// records the round's questions as a PendingRound{session_id, round_id,
// questions} and *parks* the in-flight job: the job runs on a Fiber
// (src/util/fiber.h), and the runner's yield hook switches back to the
// runner with the whole call stack kept alive. Once the answers arrive
// (SessionRouter::ProvideAnswers), the runner stages them
// (StageResumeAnswers) and resumes the fiber: the suspended IsAnswerBatch
// fills its answer span from the staged bits and simply returns to the
// learner — no re-run, no replay, O(1) compute per resume.
// RequestCancel() makes the *next* resume throw JobSuspended
// (src/util/suspend.h) from the parked wait-site instead, which is how
// owners unwind a parked stack they need to abandon (correction, close,
// shutdown).
//
// Round ids count *user-boundary* rounds (each suspension is one round);
// they are the resumption protocol's sequence numbers, distinct from the
// learner round ids of the session's history (QuerySession::history() and
// rounds(), which also count rounds the cache answered whole). An empty
// round is a no-op, not a suspension — sequential equivalence says zero
// questions mean zero user interactions.

#ifndef QHORN_ORACLE_PENDING_H_
#define QHORN_ORACLE_PENDING_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

/// One round of membership questions awaiting a real user's answers.
struct PendingRound {
  int64_t session_id = 0;  ///< the SessionRouter session that suspended
  int64_t round_id = 0;    ///< user-boundary round sequence number
  std::vector<TupleSet> questions;
};

/// Backend whose every (non-empty) round suspends the in-flight job.
class PendingOracle : public MembershipOracle {
 public:
  PendingOracle() = default;

  /// The router stamps the id after Open assigns it (no jobs can run
  /// before Open returns, so this never races a suspension).
  void set_session_id(int64_t id) { session_id_ = id; }

  /// Called by the job runner before each (re-)run: `next_round_id` is the
  /// number of rounds already answered — the id the next suspension will
  /// carry. Clears any stale pending round from an abandoned attempt.
  void BeginAttempt(int64_t next_round_id);

  /// Installs (or clears, with nullptr) the park hook. The hook must
  /// switch back to the runner and return only when answers have been
  /// staged or a cancel was requested. Installed once per fiber attempt by
  /// the runner, before any round can reach this backend; never changed
  /// while a round is in flight.
  void InstallYieldHook(std::function<void()> yield);

  /// Stages the answers for the parked round before the runner resumes the
  /// fiber. Size must equal the parked round's question count.
  void StageResumeAnswers(std::vector<bool> answers);

  /// Makes the parked wait-site throw JobSuspended on its next resume:
  /// the fiber unwinds through the ordinary exception machinery and
  /// finishes without touching the learner again.
  void RequestCancel() { cancel_requested_ = true; }

  /// Single-question round: parks and, on resume, returns the staged
  /// answer.
  bool IsAnswer(const TupleSet& question) override;

  /// Records the round and parks. An empty round returns immediately
  /// (no round, no suspension — nothing to ask a user). On resume, fills
  /// `answers` from the staged bits.
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  bool has_pending() const { return has_pending_; }

  /// Harvests the recorded round after a suspension reaches the runner.
  PendingRound TakePending();

  /// Rounds that suspended (a per-session statistic; rounds a correction
  /// restart replays never reach this backend, so each user round counts
  /// exactly once).
  int64_t suspensions() const { return suspensions_; }

 private:
  /// Records the round, parks, and on resume fills `answers`.
  void SuspendAndAwait(std::vector<TupleSet> questions, BitSpan answers);

  int64_t session_id_ = 0;
  int64_t next_round_id_ = 0;
  int64_t suspensions_ = 0;
  bool has_pending_ = false;
  PendingRound pending_;
  std::function<void()> yield_;
  std::vector<bool> staged_answers_;
  bool answers_staged_ = false;
  bool cancel_requested_ = false;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_PENDING_H_
