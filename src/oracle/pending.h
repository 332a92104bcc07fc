// PendingOracle — the real-user backend for pending-round continuations.
//
// Every other backend answers a round synchronously. A real user does not:
// their answers arrive seconds to minutes later, over whatever transport
// the embedding server uses. PendingOracle models exactly that: any round
// reaching it is by definition "not answerable synchronously", so it
// *parks* the in-flight job on the round: the job runs on a Fiber
// (src/util/fiber.h), and the runner's yield hook switches back to the
// runner with the whole call stack kept alive. The parked frame is the one
// place the round lives: the backend keeps a view of the caller's
// question span and answer span and copies neither. Once the answers
// arrive (SessionRouter::ProvideAnswers), Answer() writes the bits
// straight into the parked answer span and the runner resumes the fiber:
// the suspended IsAnswerBatch simply returns to the learner — no re-run,
// no replay, O(1) compute per resume. RequestCancel() makes the *next*
// resume throw JobSuspended (src/util/suspend.h) from the parked wait-site
// instead, which is how owners unwind a parked stack they need to abandon
// (correction, close, shutdown).
//
// The backend knows no session or round ids: the router names a parked
// round by its session and by its count of answered rounds, and builds the
// by-value PendingRound its poll hands out from parked_questions(): a
// share of each question's storage, not a copy of its tuples. Round
// ids count *user-boundary* rounds (each suspension is one round); they
// are the resumption protocol's sequence numbers, distinct from the
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

/// One round of membership questions awaiting a real user's answers, by
/// value: what SessionRouter's poll and pending_round(id) hand out. Its
/// questions share their heap blocks with the parked frame's (TupleSet
/// copies on write), so building one copies no tuple.
struct PendingRound {
  int64_t session_id = 0;  ///< the SessionRouter session that suspended
  int64_t round_id = 0;    ///< user-boundary round sequence number
  std::vector<TupleSet> questions;
};

/// Backend whose every (non-empty) round suspends the in-flight job.
class PendingOracle : public MembershipOracle {
 public:
  PendingOracle() = default;

  /// Installs (or clears, with nullptr) the park hook. The hook must
  /// switch back to the runner and return only once Answer() has filled
  /// the parked round or a cancel was requested. Installed once per fiber
  /// attempt by the runner, before any round can reach this backend;
  /// never changed while a round is in flight.
  void InstallYieldHook(std::function<void()> yield);

  /// The parked round's questions: the asking frame's own span, valid from
  /// the park to the resume, and empty while nothing is parked.
  std::span<const TupleSet> parked_questions() const { return questions_; }

  /// Writes the user's answers into the parked frame's answer span, for
  /// the next resume to return. Size must equal parked_questions()'s.
  void Answer(BitSpan answers);

  /// Makes the parked wait-site throw JobSuspended on its next resume:
  /// the fiber unwinds through the ordinary exception machinery and
  /// finishes without touching the learner again.
  void RequestCancel() { cancel_requested_ = true; }

  /// Single-question round: parks on a one-question view of `question`.
  bool IsAnswer(const TupleSet& question) override;

  /// Parks on the round. An empty round returns immediately (no round, no
  /// suspension — nothing to ask a user). On resume, `answers` holds what
  /// Answer() wrote.
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

 private:
  std::function<void()> yield_;
  // The parked round, in the asking frame; set only while it is parked.
  std::span<const TupleSet> questions_;
  BitSpan answers_;
  bool answered_ = false;
  bool cancel_requested_ = false;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_PENDING_H_
