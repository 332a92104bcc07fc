// ShardedRouter — N independent SessionRouter shards behind one facade.
//
// One SessionRouter serializes every protocol call on a single mutex —
// fine at 64 sessions, a wall at millions. The facade splits the session
// space across N shards, each a complete SessionRouter with its own mutex,
// session map and announced-round list, so protocol calls against different
// shards never touch a shared line. What *is* shared is the one Executor:
// lanes are a machine-wide resource, so every shard posts its runner tasks
// to the same one-queue pool (Options.threads is the TOTAL lane count, not
// per-shard).
//
// Session ids are the same number at every layer: session `id` lives on
// shard `id mod shards` under that same id, so the facade keeps no
// placement state and rewrites no id. Its own opens take ids from one
// atomic counter counting up from 1 — at shards == 1 that is exactly the
// bare SessionRouter's sequence, so a 1-shard facade is bit-identical to
// a bare SessionRouter (same ids, same rounds, same stats). OpenPendingAt
// opens at an id the caller picks; DurableRouter uses it so a session's
// id is also its WAL record's id, and WAL file `id mod shards` pairs 1:1
// with router shard `id mod shards`: a durable commit on one WAL contends
// only with its own router shard.
//
// Determinism contract (inherited): a session's observable history depends
// only on its own job and answer sequence, never on which shard hosts it
// or how many shards exist. The facade adds no cross-shard coordination —
// Drain() drains shard by shard (jobs never create work on another
// shard), PendingRounds() concatenates the shards' polls and sorts the
// result once by id, and stats() sums. Like a shard's, the poll is
// edge-triggered: each round is delivered once.
//
// Scaling model: throughput ≈ min(lanes, shards × per-shard capacity).
// Shards bound protocol-call parallelism (mutex acquisitions spread
// across N locks); lanes bound compute parallelism; pending sessions are
// bounded by memory alone (a parked session holds no lane on any shard).
//
// Lock order (enforced at runtime by the rank checker, src/util/
// lock_ranks.h): the facade itself holds no mutex — ids come from one
// atomic counter — so the order through this layer is exactly one
// shard's: that shard's SessionRouter (kRouterShard) → its WAL shard
// (kWalShard) → the filesystem (kFaultFs/kFs). Same-rank nesting is
// forbidden, so no call path may hold two shard mutexes at once —
// cross-shard deadlock is structurally impossible, and a DurableRouter
// commit hook runs under exactly one shard mutex.

#ifndef QHORN_SESSION_SHARDED_ROUTER_H_
#define QHORN_SESSION_SHARDED_ROUTER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/session/router.h"

namespace qhorn {

/// Facade over N SessionRouter shards sharing one executor. Mirrors the
/// SessionRouter protocol surface method for method; every id-taking call
/// is tolerant of garbage ids (unknown session / false / nullopt, never a
/// crash).
class ShardedRouter {
 public:
  using SessionId = SessionRouter::SessionId;
  using Job = SessionRouter::Job;
  using CommitHook = SessionRouter::CommitHook;

  struct Options {
    /// Router shards. 1 is the differential baseline (bit-identical to a
    /// bare SessionRouter); production wants a small multiple of the lane
    /// count.
    int shards = 4;
    /// TOTAL concurrent session lanes across all shards; ≤ 0 means
    /// Executor::DefaultConcurrency() (honours QHORN_THREADS). 1 degrades
    /// to synchronous in-caller execution — the differential baseline.
    int threads = 0;
    QuerySession::Options session;
  };

  ShardedRouter() : ShardedRouter(Options()) {}
  explicit ShardedRouter(Options options);
  /// Drains every shard, joins the shared executor, then destroys the
  /// shards — the canonical teardown order for borrowed executors (a
  /// shard must not unwind parked fibers while another shard's runner
  /// could still be in flight).
  ~ShardedRouter();

  ShardedRouter(const ShardedRouter&) = delete;
  ShardedRouter& operator=(const ShardedRouter&) = delete;

  /// Takes the counter's next id and lands on shard `id mod shards`
  /// (placement does not affect observables; consecutive ids keep shards
  /// balanced). An id a caller-chosen open already holds is skipped.
  /// 0 (a typed refusal; nothing opens) when `n` is outside
  /// [1, kMaxVars], like SessionRouter::OpenPending.
  SessionId OpenPending(int n);

  /// OpenPending under an id the caller picks, on shard `id mod shards`
  /// (see SessionRouter::OpenPendingAt): 0, and nothing opens, for an id
  /// ≤ 0, an id in use or an out-of-range `n`.
  SessionId OpenPendingAt(SessionId id, int n);

  bool Submit(SessionId id, Job job);
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// The rounds announced since the last poll on every shard (each round
  /// delivered once, see SessionRouter::PendingRounds), in session-id
  /// order.
  std::vector<PendingRound> PendingRounds();

  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers, CommitHook commit);
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The round the session is blocked on, if any: the way to re-read a
  /// round the poll already delivered.
  std::optional<PendingRound> pending_round(SessionId id);

  bool Close(SessionId id);
  bool Close(SessionId id, CommitHook commit);
  std::optional<SessionStatus> status(SessionId id);
  int64_t suspensions(SessionId id);

  /// Blocks until no session on any shard can progress without input.
  /// One pass suffices: a job never creates work on another shard.
  void Drain();

  QuerySession& session(SessionId id);

  /// Aggregate counters summed across shards. Requires no runnable job,
  /// like SessionRouter::stats().
  ServiceStats stats();

  int shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(SessionId id) const {
    return static_cast<int>(id % static_cast<SessionId>(shards_.size()));
  }

  Executor* executor() { return executor_.get(); }

 private:
  /// The shard hosting `id`, or nullptr for an id ≤ 0, which no shard
  /// hosts.
  SessionRouter* Route(SessionId id) {
    return id <= 0 ? nullptr : shards_[static_cast<size_t>(ShardOf(id))].get();
  }
  std::unique_ptr<Executor> executor_;
  std::vector<std::unique_ptr<SessionRouter>> shards_;
  std::atomic<SessionId> next_id_{1};
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SHARDED_ROUTER_H_
