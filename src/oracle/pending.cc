#include "src/oracle/pending.h"

#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/util/checked_mutex.h"
#include "src/util/suspend.h"

namespace qhorn {

void PendingOracle::BeginAttempt(int64_t next_round_id) {
  next_round_id_ = next_round_id;
  has_pending_ = false;
  pending_ = PendingRound();
  answers_staged_ = false;
  staged_answers_.clear();
}

void PendingOracle::InstallYieldHook(std::function<void()> yield) {
  yield_ = std::move(yield);
  cancel_requested_ = false;
}

void PendingOracle::StageResumeAnswers(std::vector<bool> answers) {
  staged_answers_ = std::move(answers);
  answers_staged_ = true;
}

void PendingOracle::SuspendAndAwait(std::vector<TupleSet> questions,
                                    BitSpan answers) {
  const size_t count = questions.size();
  pending_.session_id = session_id_;
  pending_.round_id = next_round_id_;
  pending_.questions = std::move(questions);
  has_pending_ = true;
  ++suspensions_;
  // The yield parks the whole stack until some (possibly other) thread
  // resumes it. A checked lock held here would stay "held" forever or
  // unlock on the wrong thread — catch it before parking (defense in
  // depth; Fiber::Yield asserts the same).
  LockRankChecker::AssertNoneHeld("a suspending session job");
  QHORN_CHECK_MSG(yield_ != nullptr,
                  "a round reached PendingOracle outside a fiber attempt");
  // Switch back to the runner with the stack alive. The runner either
  // stages this round's answers and resumes, or requests a cancel — in
  // which case the throw below unwinds the parked stack through the
  // ordinary suspension machinery.
  yield_();
  if (cancel_requested_) throw JobSuspended();
  QHORN_CHECK_MSG(answers_staged_ && staged_answers_.size() == count,
                  "fiber resumed without answers for the parked round");
  for (size_t i = 0; i < count; ++i) answers.Set(i, staged_answers_[i]);
  answers_staged_ = false;
  staged_answers_.clear();
  // The parked round was answered without re-entering the job, so this
  // backend advances its own round sequence (a correction restart instead
  // gets a fresh BeginAttempt with the caught-up id).
  ++next_round_id_;
}

bool PendingOracle::IsAnswer(const TupleSet& question) {
  uint64_t word = 0;
  BitSpan one(&word, 0, 1);
  SuspendAndAwait({question}, one);
  return one.Get(0);
}

void PendingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  if (questions.empty()) return;
  SuspendAndAwait(std::vector<TupleSet>(questions.begin(), questions.end()),
                  answers);
}

PendingRound PendingOracle::TakePending() {
  has_pending_ = false;
  return std::move(pending_);
}

}  // namespace qhorn
