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
//                              under the router lock. A refused append
//                              surfaces as kLogWriteFailed with the
//                              session untouched;
//   Close(id)                → SessionClosed{id} appended, then the
//                              session closes.
//
// Sessions are deterministic functions of (spec, answer sequence)
// (router.h's determinism contract), so the log needs no checkpoints:
// Recover() re-opens every logged session, resubmits its job plan, and
// feeds the logged answers back through the ordinary pending protocol.
// After recovery the service is *observably identical* to one that never
// crashed — same pending rounds, same round ids, same transcripts — which
// the crash harness (crash_harness.h) enforces differentially against a
// synchronous reference arm.
//
// Session ids: the wrapper assigns its own ("external") ids and keeps
// honoring them across recovery, remapping internally to whatever ids the
// fresh post-crash router hands out. Users outlive server crashes; their
// session handles must too. Both directions of the map are dense vectors
// (external ids count up from 1, router ids interleave the shards' own
// counters), so a lookup is an index, not a hash probe.
//
// The log is sharded (shard = id mod shards) so concurrent sessions do
// not serialize on one append mutex; a session's records stay in one
// shard, totally ordered by round id, so recovery never needs an order
// across shards.
//
// The poll: PendingRounds() takes the facade's merged, router-id-ordered
// list and rewrites each id through the dense map in one pass under the
// wrapper's mutex. Session e lives on router shard (e − 1) mod shards,
// which makes the k-th session of that shard external id
// (k − 1)·shards + shard + 1 and router id k·shards + shard — the same
// order. So when sessions were opened one after another, the facade's
// order already is the external order and nothing is sorted; the pass
// checks it as it goes and sorts only when racing opens (or an id a
// refused open could not hand back) left a session out of place.

#ifndef QHORN_DURABLE_DURABLE_ROUTER_H_
#define QHORN_DURABLE_DURABLE_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/durable/fs.h"
#include "src/durable/session_log.h"
#include "src/session/sharded_router.h"
#include "src/util/checked_mutex.h"
#include "src/workload/workload.h"

namespace qhorn {

struct DurableRouterOptions {
  SessionRouter::Options router;
  SessionLogOptions log;  ///< kEveryAppend = full log-before-ack durability
  /// WAL shards *and* router shards: the in-memory service is a
  /// ShardedRouter with the same count, each session pinned to the router
  /// shard matching its WAL shard (id mod shards), so a commit hook on
  /// one WAL only ever holds that one router shard's mutex.
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
  /// shard, truncates torn tails (loudly, via `report`), rejects corrupt
  /// or undecodable records — and a session opened with `n` outside
  /// [1, kMaxVars] — with a typed error, re-opens every logged
  /// session and replays its answered rounds through the ordinary pending
  /// protocol. nullptr + `*error` on any typed failure — a log Recover
  /// cannot vouch for is never half-replayed.
  static std::unique_ptr<DurableRouter> Recover(
      Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
      RecoveryReport* report, std::string* error);

  ~DurableRouter();

  DurableRouter(const DurableRouter&) = delete;
  DurableRouter& operator=(const DurableRouter&) = delete;

  /// Logs SessionOpened, then opens the session and submits the spec's
  /// job plan. 0 (never a valid id) if `spec.n` is outside [1, kMaxVars]
  /// (refused before anything is logged) or if the log refused the record
  /// — the call is retryable, and the id goes back to the next open
  /// unless a concurrent open has already reserved a later one. Safe to
  /// call from several threads; each gets its own id.
  SessionId OpenPending(const SessionSpec& spec);

  /// SessionRouter::ProvideAnswers semantics plus kLogWriteFailed when
  /// the round's log record could not be committed; the session — pending
  /// round included — is untouched and the identical call may be retried
  /// (after recovery if the log is poisoned; a duplicate record from a
  /// sync-failure retry is skipped idempotently by Recover).
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// Logs SessionClosed, then closes. False if the id is unknown, the
  /// session is already closed, or the close record could not be
  /// committed (retryable; recovery skips a duplicate close).
  bool Close(SessionId id);

  /// Every awaiting round, by value, carrying external ids and ordered by
  /// them (see the file comment for how the order comes for free).
  std::vector<PendingRound> PendingRounds();

  void Drain();
  std::optional<SessionStatus> status(SessionId id);
  QuerySession& session(SessionId id);
  ServiceStats stats();

  /// Records appended across all shards (tests assert log growth).
  int64_t records_logged() const;

  ShardedRouter& router() { return *router_; }

  static std::string ShardPath(const std::string& log_dir, int shard);

 private:
  DurableRouter(Fs* fs, std::string log_dir, DurableRouterOptions options);

  bool OpenLogs(std::string* error);
  SessionLog* ShardFor(SessionId external_id);
  /// The router shard paired with `external`'s WAL shard (file comment).
  int RouterShardFor(SessionId external) const;
  void MapIds(SessionId external, SessionId internal) QHORN_REQUIRES(mutex_);
  /// The router id of `external`, or 0 for an id never handed out.
  SessionId InternalOf(SessionId external) const QHORN_REQUIRES(mutex_);

  Fs* fs_;
  std::string log_dir_;
  DurableRouterOptions options_;
  std::unique_ptr<ShardedRouter> router_;
  std::vector<std::unique_ptr<SessionLog>> shards_;

  // Guards the id maps and next_external_. Always released before calling
  // into router_ — but its rank (kDurableRouter) sits below kRouterShard,
  // so even holding it across such a call would respect the lock order.
  mutable Mutex mutex_{"durable-router", LockRank::kDurableRouter};
  // Dense id maps; 0 marks an unmapped slot (no session has id 0).
  std::vector<SessionId> to_internal_ QHORN_GUARDED_BY(mutex_);  // [external]
  std::vector<SessionId> to_external_ QHORN_GUARDED_BY(mutex_);  // [router id]
  SessionId next_external_ QHORN_GUARDED_BY(mutex_) = 1;
};

}  // namespace qhorn

#endif  // QHORN_DURABLE_DURABLE_ROUTER_H_
