// Membership-question oracles (§2.1.2).
//
// A membership question is an object (a TupleSet); the oracle plays the
// user, classifying it as an answer or a non-answer to the intended query.
// Learners and verifiers depend only on the MembershipOracle interface;
// decorators add counting, caching, noise and history.
//
// Oracles answer one question at a time (IsAnswer) or a whole round at
// once (IsAnswerBatch). The batch entry point is the seam for oracle
// backends that amortize per-question cost — compiled bulk evaluation,
// cache partitioning, version-space pruning — while the learners stay
// backend-agnostic.
//
// Answers travel as bits: the caller supplies a BitSpan over reusable
// storage (BitVec), so a round allocates nothing anywhere in the stack.
// A one-question round still carries single-digit nanoseconds of fixed
// cost over a plain IsAnswer (virtual-boundary argument traffic and
// scratch loads — BM_OracleBatchBatched/1); the learners stopped
// special-casing singleton rounds anyway, because that residue is
// invisible next to real rounds and the uniform batch path is what the
// pipeline and service layers assume.

#ifndef QHORN_ORACLE_ORACLE_H_
#define QHORN_ORACLE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/bool/tuple_set.h"
#include "src/core/compiled_query.h"
#include "src/core/query.h"
#include "src/util/bit_span.h"
#include "src/util/rng.h"

namespace qhorn {

struct QuestionHistory;  // src/oracle/history.h

/// The user being questioned: classifies objects as answers/non-answers.
class MembershipOracle {
 public:
  virtual ~MembershipOracle() = default;

  /// True iff `question` is an answer to the intended query.
  virtual bool IsAnswer(const TupleSet& question) = 0;

  /// Answers a whole round of questions at once.
  ///
  /// Contract: observably equivalent to asking IsAnswer(questions[0]),
  /// IsAnswer(questions[1]), … in order — same answers, same state
  /// evolution, same decorator statistics and transcripts. Overrides are
  /// pure optimizations of that sequential semantics (bulk compiled
  /// evaluation, miss-only forwarding, one version-space partition per
  /// round); tests/oracle_batch_test.cc pins every override against the
  /// default question-for-question path.
  ///
  /// `answers.size()` must equal `questions.size()`; answer i is written
  /// to bit i. The caller owns the storage (typically a per-loop BitVec).
  virtual void IsAnswerBatch(std::span<const TupleSet> questions,
                             BitSpan answers) {
    for (size_t i = 0; i < questions.size(); ++i) {
      answers.Set(i, IsAnswer(questions[i]));
    }
  }
};

/// Decorator that forwards IsAnswer and *decomposes* every batch into
/// sequential IsAnswer calls (it deliberately inherits the default
/// IsAnswerBatch). Wrapping a stack in it yields the reference sequential
/// path the batched path must agree with question for question — the
/// differential harness of tests/oracle_batch_test.cc and the
/// BM_OracleBatchSequential baseline both use it.
class SequentialOracle : public MembershipOracle {
 public:
  explicit SequentialOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override {
    return inner_->IsAnswer(question);
  }

 private:
  MembershipOracle* inner_;
};

/// A perfectly reliable simulated user holding a hidden intended query.
/// The intended query is compiled once at construction; every question is
/// answered by the compiled engine (extensionally identical to
/// Query::Evaluate, so learner question counts are unaffected). Batches
/// dispatch to CompiledQuery::EvaluateAll — one virtual call per round.
class QueryOracle : public MembershipOracle {
 public:
  explicit QueryOracle(Query intended, EvalOptions opts = EvalOptions())
      : intended_(std::move(intended)), compiled_(intended_, opts) {}

  bool IsAnswer(const TupleSet& question) override {
    return compiled_.Evaluate(question);
  }

  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    compiled_.EvaluateAll(questions, answers);
  }

  const Query& intended() const { return intended_; }
  const CompiledQuery& compiled() const { return compiled_; }

 private:
  Query intended_;
  CompiledQuery compiled_;
};

/// Question-count statistics (the unit all of the paper's bounds are in).
struct OracleStats {
  int64_t questions = 0;        ///< membership questions asked
  int64_t tuples = 0;           ///< total tuples across all questions
  int64_t max_tuples = 0;       ///< largest single question
  int64_t answers = 0;          ///< questions classified as answers
  int64_t rounds = 0;           ///< oracle calls (a batch is one round)
  int64_t batched_questions = 0;  ///< questions that arrived inside batches

  void Reset() { *this = OracleStats(); }
};

/// Decorator that counts questions, question sizes and oracle rounds.
class CountingOracle : public MembershipOracle {
 public:
  explicit CountingOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  const OracleStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  void Record(const TupleSet& question);

  MembershipOracle* inner_;
  OracleStats stats_;
};

/// One question/answer exchange.
struct TranscriptEntry {
  TupleSet question;
  bool response = false;
  /// Oracle round the exchange belonged to (a batch is one round; the
  /// questions of a batch share a round id).
  int64_t round = 0;
};

/// Decorator that memoizes responses, so repeated identical questions cost
/// nothing. The role-preserving universal-body search re-examines lattice
/// roots as new bodies are found; the paper's counting convention charges a
/// question once, which this decorator implements.
///
/// The memo is an ask-ordered log: every miss is appended as one
/// (question, answer) entry, so the log is exactly the exchanges that
/// passed this stage toward the user, in the order they were asked — the
/// session's user-boundary transcript, each question stored once. Entry
/// `round` counts this stage's forwards (one per round with a miss). The
/// log also backs the learner-facing history: with RecordHistory, every
/// question of every answered round, hits included, is recorded as its
/// log position (see src/oracle/history.h), so a session's history holds
/// no question of its own. An
/// open-addressed index of log positions finds a question in one probe
/// sequence: a slot holds a 32-bit hash tag and a position, so a probe
/// compares tags and touches the log only on a likely match. TupleSet
/// caches its canonical-form hash, so a lookup never rehashes the tuples.
///
/// A batch forwards only its unique misses to the wrapped oracle —
/// duplicates within a round and questions answered in earlier rounds are
/// served from the log, exactly as the sequential path would. When the
/// misses form one contiguous run (the common shapes: an all-fresh round,
/// or hits only at the edges), the forward is a subspan of the caller's own
/// span — an index-based view, no TupleSet is copied however wide the
/// round; only rounds with hits *interleaved between* misses fall back to
/// gathering the misses into a scratch vector.
///
/// A round's misses enter the log before the forward (so a duplicate later
/// in the same round finds them) but count as answered only once it
/// returns: log(), hits() and misses() never show an in-flight round, and a
/// round that suspends by throwing (a pending backend) removes its entries
/// again, leaving log, index and counters exactly as before the call.
class CachingOracle : public MembershipOracle {
 public:
  explicit CachingOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

  /// The answered exchanges, in ask order.
  std::span<const TranscriptEntry> log() const {
    return {log_.data(), answered_};
  }

  /// Moves the log out and empties the cache (counters stay). Not while a
  /// round is in flight.
  std::vector<TranscriptEntry> TakeLog();

  /// From now on, records every round this stage answers into `history`:
  /// where the round starts and each question's log position, once the
  /// round's forward has returned.
  void RecordHistory(QuestionHistory* history) { history_ = history; }

 private:
  static constexpr size_t kAbsent = SIZE_MAX;

  /// Log position of `question`, or kAbsent; either way `*slot` is the
  /// index slot where the probe stopped (untouched while the index is
  /// empty). Defined inline below: it is the whole hit path.
  size_t Find(const TupleSet& question, size_t* slot) const;
  /// Appends `question` (answer pending) at the empty `slot` Find
  /// returned for it; returns its log position.
  size_t Append(const TupleSet& question, size_t slot);
  /// Removes the log entries from `size` on, and their index slots.
  void Truncate(size_t size);
  /// Rebuilds the index at twice the capacity (16 at first).
  void Grow();
  /// Records the answered round whose log positions are `positions`.
  void Record(std::span<const size_t> positions);
  size_t Home(size_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  MembershipOracle* inner_;
  std::vector<TranscriptEntry> log_;
  size_t answered_ = 0;  // log_[answered_, size) is the in-flight round
  int64_t rounds_ = 0;
  // Slot = (hash >> 32) << 32 | (position + 1); 0 is empty. Linear
  // probing, power-of-two capacity, at most 3/4 full. Entries are inserted
  // in log order and removed newest first, so clearing a slot never cuts
  // another entry's probe sequence.
  std::vector<uint64_t> slots_;
  int shift_ = 64;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  QuestionHistory* history_ = nullptr;
  // Round-local scratch, members so a steady-state round allocates
  // nothing. Never read across calls; safe because the inner round runs on
  // a *different* oracle object (the stack is a chain, not a cycle).
  std::vector<size_t> positions_;
  std::vector<size_t> miss_indices_;
  std::vector<TupleSet> miss_questions_;  // gather fallback only
  BitVec miss_answers_;
};

inline size_t CachingOracle::Find(const TupleSet& question,
                                 size_t* slot) const {
  if (slots_.empty()) return kAbsent;  // Append grows before inserting
  const size_t hash = question.Hash();
  const uint64_t tag = hash >> 32;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(hash);; i = (i + 1) & mask) {
    const uint64_t entry = slots_[i];
    if (entry == 0) {
      *slot = i;
      return kAbsent;
    }
    const size_t pos = static_cast<size_t>(entry & 0xffffffffu) - 1;
    if ((entry >> 32) == tag && log_[pos].question == question) {
      *slot = i;
      return pos;
    }
  }
}

/// Decorator modelling an unreliable user (§5 "Noisy Users"): each response
/// is flipped independently with probability `flip_prob`. The flip draws
/// happen in question order whether the round arrives batched or not — and
/// regardless of how the backend below scheduled its evaluation — so a
/// fixed seed yields the identical noise sequence on either path.
class NoisyOracle : public MembershipOracle {
 public:
  NoisyOracle(MembershipOracle* inner, double flip_prob, uint64_t seed)
      : inner_(inner), flip_prob_(flip_prob), rng_(seed) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  int64_t flips() const { return flips_; }
  double flip_prob() const { return flip_prob_; }

 private:
  bool MaybeFlip(bool answer);

  MembershipOracle* inner_;
  double flip_prob_;
  Rng rng_;
  int64_t flips_ = 0;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_ORACLE_H_
