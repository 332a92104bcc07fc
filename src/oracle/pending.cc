#include "src/oracle/pending.h"

#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/util/checked_mutex.h"
#include "src/util/suspend.h"

namespace qhorn {

void PendingOracle::InstallYieldHook(std::function<void()> yield) {
  yield_ = std::move(yield);
  cancel_requested_ = false;
}

void PendingOracle::Answer(BitSpan answers) {
  QHORN_CHECK_MSG(answers.size() == answers_.size(),
                  "answers do not match the parked round");
  for (size_t i = 0; i < answers.size(); ++i) answers_.Set(i, answers.Get(i));
  answered_ = true;
}

bool PendingOracle::IsAnswer(const TupleSet& question) {
  uint64_t word = 0;
  BitSpan one(&word, 0, 1);
  IsAnswerBatch(std::span<const TupleSet>(&question, 1), one);
  return one.Get(0);
}

void PendingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  if (questions.empty()) return;
  // The yield parks the whole stack until some (possibly other) thread
  // resumes it. A checked lock held here would stay "held" forever or
  // unlock on the wrong thread — catch it before parking (defense in
  // depth; Fiber::Yield asserts the same).
  LockRankChecker::AssertNoneHeld("a suspending session job");
  QHORN_CHECK_MSG(yield_ != nullptr,
                  "a round reached PendingOracle outside a fiber attempt");
  questions_ = questions;
  answers_ = answers;
  // Switch back to the runner with the stack alive. The runner either
  // resumes once Answer() has filled `answers`, or requests a cancel — in
  // which case the throw below unwinds the parked stack through the
  // ordinary suspension machinery.
  yield_();
  questions_ = {};
  answers_ = BitSpan();
  const bool answered = std::exchange(answered_, false);
  if (cancel_requested_) throw JobSuspended();
  QHORN_CHECK_MSG(answered,
                  "fiber resumed without answers for the parked round");
}

}  // namespace qhorn
