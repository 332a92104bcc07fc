#include "src/oracle/oracle.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/oracle/history.h"
#include "src/util/check.h"

namespace qhorn {

void CountingOracle::Record(const TupleSet& question) {
  ++stats_.questions;
  stats_.tuples += static_cast<int64_t>(question.size());
  stats_.max_tuples =
      std::max(stats_.max_tuples, static_cast<int64_t>(question.size()));
}

bool CountingOracle::IsAnswer(const TupleSet& question) {
  // Count only after the inner oracle answers: a pending backend suspends
  // the round by throwing, and the unwound question must leave no trace in
  // the statistics (a session awaiting its user reports the counts of its
  // answered rounds only, as a parked fiber — still inside this call —
  // does). Nothing below can observe stats_, so the reordering is
  // invisible on the non-throwing path.
  bool answer = inner_->IsAnswer(question);
  ++stats_.rounds;
  Record(question);
  if (answer) ++stats_.answers;
  return answer;
}

void CountingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                   BitSpan answers) {
  // Count only after the forward returns, so a suspended round (JobSuspended
  // unwinding from a pending backend) contaminates nothing. Sequential
  // equivalence: an empty batch is zero IsAnswer calls, so it counts no
  // round — branchless, this function is on the hottest round path. (The
  // empty forward is harmless: every layer treats an empty round as a
  // no-op.)
  inner_->IsAnswerBatch(questions, answers);
  stats_.rounds += static_cast<int64_t>(!questions.empty());
  stats_.batched_questions += static_cast<int64_t>(questions.size());
  for (const TupleSet& q : questions) Record(q);
  for (size_t i = 0; i < questions.size(); ++i) {
    if (answers.Get(i)) ++stats_.answers;
  }
}

size_t CachingOracle::Append(const TupleSet& question, size_t slot) {
  const size_t pos = log_.size();
  QHORN_CHECK_MSG(pos < QuestionHistory::kPrefixTag, "question log full");
  if ((pos + 1) * 4 > slots_.size() * 3) {
    Grow();
    Find(question, &slot);
  }
  slots_[slot] = (question.Hash() >> 32 << 32) | (pos + 1);
  log_.push_back(TranscriptEntry{question, false, rounds_});
  return pos;
}

void CachingOracle::Truncate(size_t size) {
  const size_t mask = slots_.size() - 1;
  while (log_.size() > size) {
    const uint64_t want = log_.size();  // position + 1 of the newest entry
    size_t i = Home(log_.back().question.Hash());
    while ((slots_[i] & 0xffffffffu) != want) i = (i + 1) & mask;
    slots_[i] = 0;
    log_.pop_back();
  }
}

void CachingOracle::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(capacity, 0);
  shift_ = 64 - std::countr_zero(capacity);
  for (size_t pos = 0; pos < log_.size(); ++pos) {
    const size_t hash = log_[pos].question.Hash();
    size_t i = Home(hash);
    while (slots_[i] != 0) i = (i + 1) & (capacity - 1);
    slots_[i] = (hash >> 32 << 32) | (pos + 1);
  }
}

void CachingOracle::Record(std::span<const size_t> positions) {
  std::vector<uint32_t>& recorded = history_->positions;
  QHORN_CHECK_MSG(recorded.size() < UINT32_MAX - positions.size(),
                  "question history full");
  if (history_rounds_) {
    history_->round_starts.push_back(static_cast<uint32_t>(recorded.size()));
  }
  for (size_t pos : positions) recorded.push_back(static_cast<uint32_t>(pos));
}

std::vector<TranscriptEntry> CachingOracle::TakeLog() {
  QHORN_CHECK_MSG(answered_ == log_.size(), "log taken mid-round");
  std::vector<TranscriptEntry> log = std::move(log_);
  log_.clear();
  slots_.clear();
  shift_ = 64;
  answered_ = 0;
  return log;
}

bool CachingOracle::IsAnswer(const TupleSet& question) {
  size_t slot = 0;
  const size_t pos = Find(question, &slot);
  if (pos != kAbsent) {
    ++hits_;
    if (history_ != nullptr) Record({&pos, 1});
    return log_[pos].response;
  }
  // Logged once the inner oracle answers: a pending backend suspends by
  // throwing, and the unasked question must leave no trace. Nothing
  // touches the index in between, so `slot` is still the free one.
  const bool answer = inner_->IsAnswer(question);
  const size_t appended = Append(question, slot);
  log_[appended].response = answer;
  answered_ = log_.size();
  ++rounds_;
  ++misses_;
  if (history_ != nullptr) Record({&appended, 1});
  return answer;
}

void CachingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  // Partition in question order. A duplicate of an earlier miss in the same
  // round counts as a hit (the sequential path would have cached the first
  // occurrence before seeing the second): the misses enter the log as they
  // are found, so the forwarded batch holds each unseen question exactly
  // once, in first-occurrence order, and the misses sit at log positions
  // [first_miss, first_miss + misses). One index probe per question; the
  // per-question log positions are remembered and read after the inner
  // round answers the misses. (An empty round falls through every loop: no
  // probes, no forward.)
  const size_t first_miss = log_.size();
  positions_.clear();
  miss_indices_.clear();
  bool contiguous = true;
  for (size_t i = 0; i < questions.size(); ++i) {
    size_t slot = 0;
    size_t pos = Find(questions[i], &slot);
    if (pos == kAbsent) {
      if (!miss_indices_.empty() && miss_indices_.back() + 1 != i) {
        contiguous = false;
      }
      miss_indices_.push_back(i);
      pos = Append(questions[i], slot);
    }
    positions_.push_back(pos);
  }
  const size_t misses = miss_indices_.size();
  if (misses != 0) {
    BitSpan miss_bits = miss_answers_.Prepare(misses);
    try {
      if (contiguous) {
        // The misses are one run [front, back] of the caller's span:
        // forward that subspan directly — an index-based view, no TupleSet
        // copies no matter how wide the round. This is the hot shape: an
        // all-fresh round is contiguous, and so is any round whose cache
        // hits sit only at the edges.
        inner_->IsAnswerBatch(questions.subspan(miss_indices_.front(), misses),
                              miss_bits);
      } else {
        // Hits interleaved between misses: gather the misses. The copies
        // are confined to this cold shape (reused capacity, but each
        // TupleSet still copies its tuple storage).
        miss_questions_.clear();
        for (size_t idx : miss_indices_)
          miss_questions_.push_back(questions[idx]);
        inner_->IsAnswerBatch(miss_questions_, miss_bits);
      }
    } catch (...) {
      // Suspended round (pending backend): drop its pending entries, so a
      // later probe is never answered by one and the log holds exactly its
      // pre-round state. Nothing was counted yet.
      Truncate(first_miss);
      throw;
    }
    for (size_t k = 0; k < misses; ++k) {
      log_[first_miss + k].response = miss_bits.Get(k);
    }
    answered_ = log_.size();
    ++rounds_;
  }
  misses_ += static_cast<int64_t>(misses);
  hits_ += static_cast<int64_t>(questions.size() - misses);
  for (size_t i = 0; i < questions.size(); ++i) {
    answers.Set(i, log_[positions_[i]].response);
  }
  if (history_ != nullptr && !questions.empty()) Record(positions_);
}

bool NoisyOracle::MaybeFlip(bool answer) {
  if (rng_.Chance(flip_prob_)) {
    ++flips_;
    return !answer;
  }
  return answer;
}

bool NoisyOracle::IsAnswer(const TupleSet& question) {
  return MaybeFlip(inner_->IsAnswer(question));
}

void NoisyOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                BitSpan answers) {
  // An empty round draws no noise (the loop is naturally empty) and the
  // layers below all treat the empty forward as a no-op.
  inner_->IsAnswerBatch(questions, answers);
  for (size_t i = 0; i < questions.size(); ++i) {
    answers.Set(i, MaybeFlip(answers.Get(i)));
  }
}

}  // namespace qhorn
