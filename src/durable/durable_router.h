// DurableRouter — a write-ahead-logged wrapper over SessionRouter whose
// sessions survive process death.
//
// Protocol calls are logged *before* they are acknowledged:
//
//   OpenPending(spec)        → SessionOpened{id, spec} appended, then the
//                              session opens and its job plan submits;
//   ProvideAnswers(id, r, a) → RoundAnswered{id, r, a} appended from
//                              inside the router's commit hook — after
//                              every validation has passed, before any
//                              state mutates, atomically with the fold
//                              under the session's router shard lock.
//                              A refused append surfaces as
//                              kLogWriteFailed with the session
//                              untouched;
//   Close(id)                → SessionClosed{id} appended from inside
//                              the router's commit hook, once the
//                              router has checked the session is open:
//                              a refused Close logs nothing.
//
// Sessions are deterministic functions of (spec, answer sequence)
// (router.h's determinism contract), so the log needs no checkpoints:
// Recover() re-opens every logged session, resubmits its job plan, and
// feeds the logged answers back through ProvideAnswers alone — its typed
// outcomes (kStaleRound, kAnswerCountMismatch, and kNotAwaiting for a
// round the replay never reaches) are the replay's divergence checks.
// After recovery the service is *observably identical* to one that never
// crashed — same pending rounds, same round ids, same transcripts — which
// the crash harness (crash_harness.h) enforces differentially against a
// synchronous reference arm.
//
// Session ids: one number at every layer. The wrapper hands out ids from
// an atomic counter counting up from 1, logs session `id` to WAL shard
// `id mod shards`, and opens it under that same id in router lock shard
// `id mod shards` (SessionRouter::OpenPendingAt on a router built with
// the same shard count). Recovery re-opens each logged session at its
// logged id, so ids survive crashes with nothing to map — users outlive
// server crashes, and so must their session handles. The log is sharded
// so concurrent sessions do not serialize on one append mutex; a
// session's records stay in one WAL shard, totally ordered by round id,
// so recovery never needs an order across shards.
//
// Everything but opening is a pass-through to the router, whose poll
// already comes back in id order and delivers each round once
// (pending_round(id) re-reads one). A recovered router announces every
// round its replay left awaiting, so the first poll after Recover
// delivers all of them again.

#ifndef QHORN_DURABLE_DURABLE_ROUTER_H_
#define QHORN_DURABLE_DURABLE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/session/router.h"
#include "src/workload/workload.h"

namespace qhorn {

struct DurableRouterOptions {
  /// The wrapped router's options; its `shards` is ignored (see below).
  SessionRouter::Options router;
  /// Unread: log-before-ack is the only policy. Kept only for the frozen
  /// end-to-end benchmark, like FsyncPolicy.
  SessionLogOptions log;
  /// WAL shards *and* router lock shards: the wrapped SessionRouter runs
  /// with this many shards, and session `id` lives in router shard and
  /// WAL shard `id mod shards` alike, so a commit hook on one WAL only
  /// ever holds that one router shard's mutex.
  int shards = 4;
};

/// What Recover found and did — the loud part of crash recovery. Tests
/// assert on these counters (a truncated torn tail must be *reported*
/// truncated, not silently absorbed).
struct RecoveryReport {
  int64_t records_read = 0;
  int64_t sessions_recovered = 0;  ///< opened sessions re-created
  int64_t sessions_closed = 0;     ///< … of which the log says were closed
  int64_t rounds_replayed = 0;
  int64_t duplicate_records_skipped = 0;  ///< retry-after-sync-failure echoes
  int64_t torn_tails_truncated = 0;       ///< shards chopped at valid_bytes
  int64_t torn_bytes_dropped = 0;
};

class DurableRouter {
 public:
  using SessionId = SessionRouter::SessionId;

  /// Starts a fresh service over an empty (or absent) log directory.
  /// nullptr + `*error` if the directory or a shard cannot be created.
  static std::unique_ptr<DurableRouter> Create(
      Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
      std::string* error);

  /// Rebuilds the service from `log_dir` after a crash: scans every
  /// shard, rejects corrupt or undecodable records — a session opened
  /// with `n` outside [1, kMaxVars], and a record outside file
  /// `session_id mod options.shards` — with a typed error, then truncates
  /// torn tails (loudly, via `report`), re-opens every logged session and
  /// replays its answered rounds through ProvideAnswers. nullptr +
  /// `*error` on any typed failure — a log Recover cannot vouch for is
  /// never half-replayed, and a refusal in the scan writes nothing. A log
  /// written with more shards than `options.shards` (shard file
  /// `options.shards` exists) is refused before anything is read: the
  /// sessions in the files past the count would otherwise vanish. One
  /// written with fewer shards holds a session outside its paired file,
  /// which the scan refuses.
  static std::unique_ptr<DurableRouter> Recover(
      Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
      RecoveryReport* report, std::string* error);

  ~DurableRouter();

  DurableRouter(const DurableRouter&) = delete;
  DurableRouter& operator=(const DurableRouter&) = delete;

  /// Logs SessionOpened, then opens the session and submits the spec's
  /// job plan. 0 (never a valid id) if `spec.n` is outside [1, kMaxVars]
  /// or a job's query (`target` for kVerifyTarget, `mutant` for
  /// kVerifyMutant and kRevise) has another arity — refused before
  /// anything is logged — or if the log refused the record
  /// — the call is retryable. After a failed write the id goes back to
  /// the next open unless a concurrent open has already reserved a later
  /// one; after a failed sync it stays spent, since the buffered record
  /// may still become durable. Safe to call from several threads; each
  /// gets its own id.
  SessionId OpenPending(const SessionSpec& spec);

  /// SessionRouter::ProvideAnswers semantics plus kLogWriteFailed when
  /// the round's log record could not be committed; the session — pending
  /// round included — is untouched and the identical call may be retried
  /// (after recovery if the log is poisoned; a duplicate record from a
  /// sync-failure retry is skipped idempotently by Recover).
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// Logs SessionClosed from the router's commit hook, then closes. False,
  /// with nothing logged, if the id is unknown or the session is already
  /// closed; false, with the session still open, if the close record
  /// could not be committed (retryable; recovery skips a duplicate close).
  bool Close(SessionId id);

  /// The rounds announced since the last poll and still awaiting, by
  /// value, ordered by session id. Each round is delivered by exactly one
  /// poll; the first poll after Recover delivers every awaiting round.
  std::vector<PendingRound> PendingRounds();

  /// The round `id` is blocked on: the way to re-read a round the poll
  /// already delivered. nullopt for an unknown id, and for a closed or
  /// not-awaiting session.
  std::optional<PendingRound> pending_round(SessionId id);

  void Drain();
  std::optional<SessionStatus> status(SessionId id);
  QuerySession& session(SessionId id);
  ServiceStats stats();

  /// Records appended across all shards (tests assert log growth).
  int64_t records_logged() const;

  static std::string ShardPath(const std::string& log_dir, int shard);

 private:
  DurableRouter(Fs* fs, std::string log_dir, DurableRouterOptions options);

  bool OpenLogs(std::string* error);
  SessionLog* ShardFor(SessionId id);

  Fs* fs_;
  std::string log_dir_;
  DurableRouterOptions options_;
  SessionRouter router_;
  std::vector<std::unique_ptr<SessionLog>> shards_;
  // The id the next open takes; a refused open hands its id back by
  // compare-and-swap unless a concurrent open has taken a later one.
  std::atomic<SessionId> next_id_{1};
};

}  // namespace qhorn

#endif  // QHORN_DURABLE_DURABLE_ROUTER_H_
