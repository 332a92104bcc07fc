// The learner-facing question history, kept by reference (§5).
//
// A session's history lists every question its learners asked, cache hits
// included, with the answer they got and the round it arrived in. Each
// such question is already stored once, in the question cache's log, so
// the history records only where: one 32-bit log position per learner
// question, plus where each learner round starts. CachingOracle records
// into a QuestionHistory; a HistoryView resolves it back to (question,
// response, round) entries.
//
// The recording rules are TranscriptOracle's: an empty round records
// nothing and uses no round id; a round that suspends by throwing records
// nothing; a round id is used only once the forward returns. Round r's
// questions are positions[round_starts[r], round_starts[r + 1]).

#ifndef QHORN_ORACLE_HISTORY_H_
#define QHORN_ORACLE_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

/// Where each learner question is stored, and where each round starts.
struct QuestionHistory {
  std::vector<uint32_t> positions;
  std::vector<uint32_t> round_starts;

  void clear() {
    positions.clear();
    round_starts.clear();
  }
};

/// One history entry as a HistoryView resolves it.
struct HistoryEntry {
  const TupleSet& question;
  bool response;
  int64_t round;
};

/// Read-only view of a QuestionHistory over the log its positions index.
/// Valid until the log or the history changes.
class HistoryView {
 public:
  HistoryView(const QuestionHistory& history,
              std::span<const TranscriptEntry> log)
      : history_(&history), log_(log) {}

  size_t size() const { return history_->positions.size(); }
  bool empty() const { return history_->positions.empty(); }

  /// Forward iteration, O(1) per step.
  class Iterator;
  Iterator begin() const;
  Iterator end() const;

 private:
  HistoryEntry Resolve(size_t i, size_t round) const {
    const TranscriptEntry& entry = log_[history_->positions[i]];
    return HistoryEntry{entry.question, entry.response,
                        static_cast<int64_t>(round)};
  }

  const QuestionHistory* history_;
  std::span<const TranscriptEntry> log_;
};

/// Holds a copy of its view, so it may outlive the view it came from.
class HistoryView::Iterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = HistoryEntry;
  using difference_type = std::ptrdiff_t;

  Iterator(const HistoryView& view, size_t i) : view_(view), i_(i) {}
  HistoryEntry operator*() const { return view_.Resolve(i_, round_); }
  Iterator& operator++() {
    const std::vector<uint32_t>& starts = view_.history_->round_starts;
    ++i_;
    if (round_ + 1 < starts.size() && starts[round_ + 1] == i_) ++round_;
    return *this;
  }
  bool operator==(const Iterator& other) const { return i_ == other.i_; }

 private:
  HistoryView view_;
  size_t i_;
  size_t round_ = 0;  // round of entry i_ (rounds are never empty)
};

inline HistoryView::Iterator HistoryView::begin() const {
  return Iterator(*this, 0);
}
inline HistoryView::Iterator HistoryView::end() const {
  return Iterator(*this, size());
}

}  // namespace qhorn

#endif  // QHORN_ORACLE_HISTORY_H_
