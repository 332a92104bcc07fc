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
// cache partitioning, version-space pruning, executor-sharded evaluation
// (AsyncOracle in pipeline.h) — while the learners stay backend-agnostic.
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

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/bool/tuple_set.h"
#include "src/core/compiled_query.h"
#include "src/core/query.h"
#include "src/util/bit_span.h"
#include "src/util/rng.h"

namespace qhorn {

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
  /// round, executor-sharded evaluation); tests/oracle_batch_test.cc pins
  /// every override against the default question-for-question path.
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

/// Decorator that memoizes responses, so repeated identical questions cost
/// nothing. The role-preserving universal-body search re-examines lattice
/// roots as new bodies are found; the paper's counting convention charges a
/// question once, which this decorator implements. Probes are cheap:
/// TupleSet caches its canonical-form hash, so a lookup never rehashes the
/// tuple list. A batch forwards only its unique misses to the wrapped
/// oracle — duplicates within a round and questions answered in earlier
/// rounds are served from the cache, exactly as the sequential path would.
/// When the misses form one contiguous run (the common shapes: an all-fresh
/// round, or hits only at the edges), the forward is a subspan of the
/// caller's own span — an index-based view, no TupleSet is copied however
/// wide the round; only rounds with hits *interleaved between* misses fall
/// back to gathering the misses into a scratch vector.
class CachingOracle : public MembershipOracle {
 public:
  explicit CachingOracle(MembershipOracle* inner) : inner_(inner) {}

  bool IsAnswer(const TupleSet& question) override;
  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override;

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

 private:
  MembershipOracle* inner_;
  std::unordered_map<TupleSet, bool, TupleSetHash> cache_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  // Round-local scratch, members so a steady-state round allocates
  // nothing. Never read across calls; safe because the inner round runs on
  // a *different* oracle object (the stack is a chain, not a cycle).
  std::vector<size_t> miss_indices_;
  std::vector<TupleSet> miss_questions_;  // gather fallback only
  std::vector<bool*> miss_slots_;
  std::vector<const bool*> slots_;
  BitVec miss_answers_;
};

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
