#include "src/oracle/oracle.h"

#include <algorithm>

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

bool CachingOracle::IsAnswer(const TupleSet& question) {
  auto it = cache_.find(question);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  bool answer;
  try {
    answer = inner_->IsAnswer(question);
  } catch (...) {
    // A pending backend suspends by throwing; the unasked question must
    // leave the cache state untouched.
    --misses_;
    throw;
  }
  cache_.emplace(question, answer);
  return answer;
}

void CachingOracle::IsAnswerBatch(std::span<const TupleSet> questions,
                                  BitSpan answers) {
  // Partition in question order. A duplicate of an earlier miss in the same
  // round counts as a hit (the sequential path would have cached the first
  // occurrence before seeing the second), so the forwarded batch holds each
  // unseen question exactly once, in first-occurrence order. One map probe
  // per question: the per-question cache slots are remembered (references
  // into an unordered_map survive rehashing) and patched after the inner
  // round answers the misses. (An empty round falls through every loop: no
  // probes, no forward.)
  miss_indices_.clear();
  miss_slots_.clear();
  slots_.clear();
  bool contiguous = true;
  for (size_t i = 0; i < questions.size(); ++i) {
    auto [it, inserted] = cache_.try_emplace(questions[i], false);
    if (inserted) {
      ++misses_;
      if (!miss_indices_.empty() && miss_indices_.back() + 1 != i) {
        contiguous = false;
      }
      miss_indices_.push_back(i);
      miss_slots_.push_back(&it->second);
    } else {
      ++hits_;
    }
    slots_.push_back(&it->second);
  }
  if (!miss_indices_.empty()) {
    BitSpan miss_bits = miss_answers_.Prepare(miss_indices_.size());
    try {
      if (contiguous) {
        // The misses are one run [front, back] of the caller's span:
        // forward that subspan directly — an index-based view, no TupleSet
        // copies no matter how wide the round. This is the hot shape: an
        // all-fresh round is contiguous, and so is any round whose cache
        // hits sit only at the edges.
        inner_->IsAnswerBatch(
            questions.subspan(miss_indices_.front(), miss_indices_.size()),
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
      // Suspended round (pending backend): erase the false placeholders
      // inserted above — a later probe must never be answered by one — and
      // roll the counters back, so the cache holds exactly its pre-round
      // state. miss_indices_ records first occurrences only, so each erase
      // removes one distinct placeholder key.
      for (size_t idx : miss_indices_) cache_.erase(questions[idx]);
      misses_ -= static_cast<int64_t>(miss_indices_.size());
      hits_ -=
          static_cast<int64_t>(questions.size() - miss_indices_.size());
      throw;
    }
    for (size_t i = 0; i < miss_indices_.size(); ++i) {
      *miss_slots_[i] = miss_bits.Get(i);
    }
  }
  for (size_t i = 0; i < slots_.size(); ++i) answers.Set(i, *slots_[i]);
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
