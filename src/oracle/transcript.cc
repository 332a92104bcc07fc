#include "src/oracle/transcript.h"

#include "src/util/check.h"

namespace qhorn {

bool TranscriptOracle::IsAnswer(const TupleSet& question) {
  // The round id is consumed only after the inner oracle answers: a pending
  // backend unwinds a cancelled round by throwing, and the unanswered round
  // must not burn an id or leave an entry (a restarted session shows only
  // its answered rounds).
  bool response = inner_->IsAnswer(question);
  int64_t round = rounds_++;
  entries_.push_back(TranscriptEntry{question, response, round});
  return response;
}

void TranscriptOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                     BitSpan answers) {
  // An empty batch is zero sequential questions: no round id is consumed,
  // nothing is recorded, and the inner oracle is not called. The round id
  // is consumed after the forward returns, so a suspended round leaves the
  // history untouched.
  if (questions.empty()) return;
  inner_->IsAnswerBatch(questions, answers);
  int64_t round = rounds_++;
  for (size_t i = 0; i < questions.size(); ++i) {
    entries_.push_back(TranscriptEntry{questions[i], answers.Get(i), round});
  }
}

void TranscriptOracle::Correct(size_t index) {
  QHORN_CHECK_MSG(index < entries_.size(), "no transcript entry " << index);
  entries_[index].response = !entries_[index].response;
  entries_.resize(index + 1);
}

std::string TranscriptOracle::ToString(int n) const {
  std::string out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    out += "Q" + std::to_string(i + 1) + ": " + entries_[i].question.ToString(n);
    out += entries_[i].response ? "  → answer\n" : "  → non-answer\n";
  }
  return out;
}

bool ReplayOracle::TryReplay(const TupleSet& question, bool* response) {
  if (diverged_ || next_ >= prefix_.size()) return false;
  const TranscriptEntry& entry = prefix_[next_];
  if (entry.question != question) {
    // The learner's question sequence changed (it depends on earlier
    // responses); everything from here on must be asked fresh.
    diverged_ = true;
    return false;
  }
  ++next_;
  ++replayed_;
  *response = entry.response;
  return true;
}

void ReplayOracle::ReleaseIfUsedUp() {
  if (prefix_.empty() || !(diverged_ || next_ >= prefix_.size())) return;
  prefix_ = std::vector<TranscriptEntry>();
}

bool ReplayOracle::IsAnswer(const TupleSet& question) {
  bool response = false;
  if (!TryReplay(question, &response)) {
    // Counted after the fallback answers, so a suspended question (pending
    // backend throwing JobSuspended) is not recorded as asked.
    response = fallback_->IsAnswer(question);
    ++asked_;
  }
  ReleaseIfUsedUp();
  return response;
}

void ReplayOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                 BitSpan answers) {
  // Serve the still-matching transcript prefix, then send the remainder to
  // the fallback in one round. Once any question needs the fallback, every
  // later one does too (a mismatch diverges the replay; an exhausted
  // transcript stays exhausted), so the remainder is a contiguous tail.
  if (questions.empty()) return;
  size_t served = 0;
  for (; served < questions.size(); ++served) {
    bool response = false;
    if (!TryReplay(questions[served], &response)) break;
    answers.Set(served, response);
  }
  if (served != questions.size()) {
    std::span<const TupleSet> rest = questions.subspan(served);
    fallback_->IsAnswerBatch(rest, answers.Subspan(served));
    asked_ += static_cast<int64_t>(rest.size());
  }
  ReleaseIfUsedUp();
}

}  // namespace qhorn
