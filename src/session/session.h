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
// order. The §5 correction restarts from it (Restart), for the library's
// CorrectAndRelearn and the service layer's CorrectAnswer alike, rather
// than from a copy of its own. The learner-facing history indexes the same
// log: a position per learner question and a start per learner round,
// resolved on read (history()).

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

  /// Full question/answer history since the session began or last
  /// restarted: every question the learners asked, cache hits included, in
  /// order, each with its response and round id. A view that resolves
  /// positions into the question cache's log; valid until the session is
  /// next used.
  HistoryView history() const;

  /// The user-boundary transcript: the questions that reached the user
  /// backend (cache misses), each once, with its answer, in ask order —
  /// the cache's log. A round still awaiting its answers is not in it.
  std::span<const TranscriptEntry> user_transcript() const {
    return cache_->log();
  }

  /// Moves the user-boundary transcript out (the cache's log) and empties
  /// the history, which indexes it. For a caller that rebuilds a session
  /// over a replay stage of its own; the session is fit only to be
  /// destroyed after.
  std::vector<TranscriptEntry> TakeUserTranscript();

  /// Length of the answered user-boundary prefix that Restart indexes: the
  /// cache's log, or the longer prefix the replay stage still holds while
  /// a round it began serving awaits the user.
  size_t answered_questions() const;

  /// The §5 restart "from the point of error": the user flips their answer
  /// to entry `log_index` of the answered prefix. The entries after it are
  /// dropped (they answered questions computed from the bad answer); the
  /// chain is rebuilt as cache → counting → replay → user, where the
  /// replay stage serves the corrected prefix; the history and the current
  /// query are cleared. Re-running the session's phases then re-asks the
  /// user nothing the prefix answered: learners are deterministic, so the
  /// prefix re-aligns question for question up to the flip, and every
  /// replayed question passes cache and counting as when first asked.
  void Restart(size_t log_index);

  /// The library's §5 workflow: Restart at history entry `index`'s log
  /// position (for a cache hit, where the question was first asked), then
  /// Learn.
  const Query& CorrectAndRelearn(size_t index);

  /// Questions that reached the user backend (cache misses) since the
  /// session began or last restarted, replayed ones included.
  int64_t questions_asked() const { return counting_->stats().questions; }

  /// Questions the replay stages of every Restart so far served in the
  /// user's place.
  int64_t replayed_questions() const {
    return replayed_before_ + (replay_.has_value() ? replay_->replayed() : 0);
  }

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
  /// (Re)builds cache → counting → `backend` (the user, or the replay stage
  /// above it) and empties the history, which the cache records: each
  /// learner question's log position and each round's start.
  void BuildPipeline(MembershipOracle* backend);

  int n_;
  MembershipOracle* user_;
  Options options_;
  // The middleware chain, innermost first; each stage points at the one
  // below it, so a restart replaces them all. The replay stage exists
  // from the first Restart on; `replayed_before_` counts the questions
  // served by the stages that later restarts replaced.
  std::optional<ReplayOracle> replay_;
  int64_t replayed_before_ = 0;
  std::optional<CountingOracle> counting_;
  std::optional<CachingOracle> cache_;
  std::optional<Query> current_;
  // The learner-facing history, by position into cache_'s log.
  QuestionHistory history_;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SESSION_H_
