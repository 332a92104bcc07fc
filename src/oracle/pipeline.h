// Composable oracle stacks: middleware stages over a terminal backend.
//
// QuerySession used to hand-wire its decorator chain out of four named
// unique_ptr members, rebuilt field by field for the correction-replay
// workflow. OraclePipeline replaces that with an ordered middleware list:
// a *backend* answers questions (a real user, QueryOracle, AsyncOracle,
// AdversaryOracle…), and each Push<Stage>() wraps the current top with a
// decorator it owns. The user-facing entry point is top(); the stage
// nearest the backend was pushed first.
//
//   OraclePipeline p(&backend);          // cache → counting → backend
//   auto* counting = p.Push<CountingOracle>();
//   auto* cache = p.Push<CachingOracle>();
//   learner.Learn(p.top());
//
// The Backend/Stage concepts make the two roles explicit: a Backend is any
// MembershipOracle (it terminates the chain); a Stage is a MembershipOracle
// constructible from the oracle below it plus stage-specific arguments.
//
// AsyncOracle is the simulated-user backend the service layer plugs in: it
// answers from a compiled query shared across sessions and evaluates each
// round inline on the asking session's lane via CompiledQuery::EvaluateAll.
// Answers land in question order, so every decorator above it — including
// NoisyOracle, whose flip draws consume the seed in question order —
// observes exactly the sequential semantics (differentially pinned in
// tests/oracle_batch_test.cc).

#ifndef QHORN_ORACLE_PIPELINE_H_
#define QHORN_ORACLE_PIPELINE_H_

#include <concepts>
#include <memory>
#include <utility>
#include <vector>

#include "src/oracle/oracle.h"

namespace qhorn {

/// A terminal oracle: anything that can answer membership questions.
template <typename T>
concept OracleBackend = std::derived_from<T, MembershipOracle>;

/// A middleware stage: wraps the oracle below it (first constructor
/// argument) and is itself an oracle.
template <typename T, typename... Args>
concept OracleStage = std::derived_from<T, MembershipOracle> &&
                      std::constructible_from<T, MembershipOracle*, Args...>;

/// An ordered, owning middleware chain over a non-owned backend.
class OraclePipeline {
 public:
  OraclePipeline() = default;

  /// `backend` must outlive the pipeline (sessions keep the user oracle
  /// alive; simulated services own theirs elsewhere).
  explicit OraclePipeline(MembershipOracle* backend) : top_(backend) {}

  OraclePipeline(OraclePipeline&&) = default;
  OraclePipeline& operator=(OraclePipeline&&) = default;

  /// Wraps the current top in a new Stage constructed as
  /// Stage(top, args...), making it the new top. Returns the typed stage
  /// pointer (stable for the pipeline's lifetime) so callers can keep
  /// accessor handles to the stages they care about.
  template <typename Stage, typename... Args>
    requires OracleStage<Stage, Args...>
  Stage* Push(Args&&... args) {
    auto stage = std::make_unique<Stage>(top_, std::forward<Args>(args)...);
    Stage* raw = stage.get();
    stages_.push_back(std::move(stage));
    top_ = raw;
    return raw;
  }

  /// The user-facing oracle: the outermost stage, or the backend when no
  /// stage has been pushed.
  MembershipOracle* top() const { return top_; }

  bool empty() const { return stages_.empty(); }
  size_t size() const { return stages_.size(); }

 private:
  std::vector<std::unique_ptr<MembershipOracle>> stages_;
  MembershipOracle* top_ = nullptr;
};

/// Concurrent simulated-user backend: answers from a compiled query shared
/// across sessions (the SessionRouter's compiled-query cache hands these
/// out). The compiled form is immutable and accessed read-only, so any
/// number of AsyncOracles — and any number of concurrent rounds on
/// different lanes — may share one.
class AsyncOracle : public MembershipOracle {
 public:
  explicit AsyncOracle(std::shared_ptr<const CompiledQuery> compiled)
      : compiled_(std::move(compiled)) {}

  bool IsAnswer(const TupleSet& question) override {
    return compiled_->Evaluate(question);
  }

  void IsAnswerBatch(std::span<const TupleSet> questions,
                     BitSpan answers) override {
    compiled_->EvaluateAll(questions, answers);
  }

  const CompiledQuery& compiled() const { return *compiled_; }

 private:
  std::shared_ptr<const CompiledQuery> compiled_;
};

}  // namespace qhorn

#endif  // QHORN_ORACLE_PIPELINE_H_
