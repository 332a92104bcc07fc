// QuerySession — the high-level entry point a query interface embeds.
//
// It wires the pieces the paper's DataPlay front-end needs around a single
// user-facing oracle: question caching (never ask the same object twice),
// question counting, a full response history with correction-and-replay
// (§5), learning (§3), verification (§4) and revision (§6). The embedding
// UI implements MembershipOracle (pose the object to the user, return
// their label); everything else is this class.
//
// The question cache's log doubles as the *user-boundary transcript*:
// every question that reached the user, once, with its answer, in ask
// order. The service layer restarts a corrected session from it (see
// TakeUserTranscript) rather than keeping a copy of its own. The
// learner-facing history indexes the same log: a position per learner
// question and a start per learner round, resolved on read (history()).

#ifndef QHORN_SESSION_SESSION_H_
#define QHORN_SESSION_SESSION_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/learn/revision.h"
#include "src/learn/rp_learner.h"
#include "src/oracle/history.h"
#include "src/oracle/transcript.h"
#include "src/verify/verifier.h"

namespace qhorn {

/// One user's query-specification session over n propositions.
class QuerySession {
 public:
  struct Options {
    RpLearnerOptions learner;
  };

  /// `user` must outlive the session.
  QuerySession(int n, MembershipOracle* user);
  QuerySession(int n, MembershipOracle* user, Options options);

  // The stages point at each other and at the session's history.
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  int n() const { return n_; }

  /// Learns the user's query from membership questions (§3.2). The result
  /// is also retained as the session's current query.
  const Query& Learn();

  /// Verifies a user-authored query with the O(k) verification set (§4).
  /// On acceptance it becomes the session's current query.
  VerificationReport Verify(const Query& candidate);

  /// Revises a close-but-wrong query (§6); the result becomes current.
  RevisionResult Revise(const Query& candidate);

  /// The session's current query, if any phase has produced one.
  const std::optional<Query>& current_query() const { return current_; }

  /// Full question/answer history: every question the learners asked,
  /// cache hits included, in order, each with its response and round id.
  /// A view that resolves positions into the question cache's log (and,
  /// after CorrectAndRelearn, into the corrected prefix it replays); valid
  /// until the session is next used.
  HistoryView history() const;

  /// The user-boundary transcript: the questions that reached the user
  /// backend (cache misses), each once, with its answer, in ask order —
  /// the cache's log. A round still awaiting its answers is not in it.
  std::span<const TranscriptEntry> user_transcript() const {
    return cache_->log();
  }

  /// Moves the user-boundary transcript out (the cache's log) and empties
  /// the history, which indexes it. What the service layer restarts a
  /// corrected session from; the session is fit only to be destroyed
  /// after.
  std::vector<TranscriptEntry> TakeUserTranscript();

  /// The §5 workflow: the user flips their answer to history entry
  /// `index`; learning restarts from that point, replaying the unchanged
  /// prefix so the user only answers genuinely new questions.
  const Query& CorrectAndRelearn(size_t index);

  /// Questions that actually reached the user (cache misses).
  int64_t questions_asked() const { return counting_->stats().questions; }

  /// Full per-question statistics at the user boundary, including how many
  /// questions arrived inside batched rounds.
  const OracleStats& oracle_stats() const { return counting_->stats(); }

  /// Oracle rounds the session issued (a batch counts once): the number of
  /// user interactions, as opposed to the number of questions. Learners
  /// emit whole lattice levels / head sweeps per round, so this is much
  /// smaller than the question count.
  int64_t rounds() const {
    return static_cast<int64_t>(history_.round_starts.size());
  }

  /// Cache traffic: identical questions served without re-asking the user.
  int64_t cache_hits() const { return cache_->hits(); }

 private:
  /// (Re)builds the middleware chain over the user backend, outermost
  /// first: [replay] → cache → counting → user, and empties the history.
  /// The cache records the history: each learner question's log position
  /// and each round's start. A non-empty `replay_prefix` becomes
  /// corrected_prefix_ and puts a ReplayOracle over it above the cache
  /// for the §5 correction workflow (served questions are not
  /// re-counted); that stage records the served questions and the round
  /// starts.
  void BuildPipeline(std::vector<TranscriptEntry> replay_prefix);

  int n_;
  MembershipOracle* user_;
  Options options_;
  // The middleware chain, innermost first; each stage points at the one
  // below it, so a rebuild replaces them all.
  std::optional<CountingOracle> counting_;
  std::optional<CachingOracle> cache_;
  std::optional<ReplayOracle> replay_;
  MembershipOracle* top_ = nullptr;
  std::optional<Query> current_;
  // The learner-facing history, by position: into cache_'s log, or with
  // QuestionHistory::kPrefixTag into corrected_prefix_ (the input of the
  // correction replay stage, kept for the stage's life).
  QuestionHistory history_;
  std::vector<TranscriptEntry> corrected_prefix_;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SESSION_H_
