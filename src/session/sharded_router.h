// ShardedRouter — N independent SessionRouter shards behind one facade.
//
// One SessionRouter serializes every protocol call on a single mutex —
// fine at 64 sessions, a wall at millions. The facade splits the session
// space across N shards, each a complete SessionRouter with its own mutex,
// session map and announcement queue, so protocol calls against different
// shards never touch a shared line. What *is* shared is deliberately the
// cheap-to-share part:
//
//   * one Executor: lanes are a machine-wide resource; every shard posts
//     its runner tasks to the same one-queue pool (Options.threads is
//     the TOTAL lane count, not per-shard).
//   * one CompiledQueryCache: a query compiled once is compiled once
//     service-wide. The cache is striped internally, so sharing it does
//     not reintroduce the lock the shards just removed.
//
// Session ids are encoded so the facade is stateless about placement:
//
//     external = internal * shards + shard_index
//
// ShardOf() is a modulo, the shard's own id comes back from a division,
// and — the property the differential suites pin — at shards == 1 the
// encoding is the identity, so a 1-shard facade is bit-identical to a bare
// SessionRouter (same ids, same rounds, same stats). DurableRouter maps
// its per-WAL shards 1:1 onto router shards via OpenPendingOnShard, so a
// durable commit on one WAL contends only with its own router shard.
//
// Determinism contract (inherited): a session's observable history depends
// only on its own job and answer sequence, never on which shard hosts it
// or how many shards exist. The facade adds no cross-shard coordination —
// Drain() drains shard by shard (jobs never create work on another
// shard), PendingRounds() merges per-shard lock-free drains, and stats()
// sums.
//
// The poll: each shard returns its awaiting rounds already in internal-id
// order (its retained announcement list is kept sorted), and Encode is
// monotone in the internal id within one shard, so the facade re-encodes
// each list in place and k-way merges them — no sort at this layer, and
// every round is moved, never copied, on its way through.
//
// Scaling model: throughput ≈ min(lanes, shards × per-shard capacity).
// Shards bound protocol-call parallelism (mutex acquisitions spread
// across N locks); lanes bound compute parallelism; pending sessions are
// bounded by memory alone (a parked session holds no lane on any shard).
//
// Lock order (enforced at runtime by the rank checker, src/util/
// lock_ranks.h): the facade itself holds no mutex — placement is one
// atomic counter — so the order through this layer is exactly one
// shard's: DurableRouter (kDurableRouter) → that shard's SessionRouter
// (kRouterShard) → its WAL shard (kWalShard) → the filesystem (kFaultFs/
// kFs). Same-rank nesting is forbidden, so no call path may hold two
// shard mutexes at once — cross-shard deadlock is structurally
// impossible, and a DurableRouter commit hook runs under exactly one
// shard mutex (asserted in SessionRouter::ProvideAnswersInternal).

#ifndef QHORN_SESSION_SHARDED_ROUTER_H_
#define QHORN_SESSION_SHARDED_ROUTER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "src/session/router.h"

namespace qhorn {

/// Facade over N SessionRouter shards sharing one executor and one
/// compiled-query cache. Mirrors the SessionRouter protocol surface
/// method for method; every id-taking call is tolerant of garbage ids
/// (unknown session / false / nullopt, never a crash).
class ShardedRouter {
 public:
  using SessionId = SessionRouter::SessionId;
  using Job = SessionRouter::Job;
  using CommitHook = SessionRouter::CommitHook;

  struct Options {
    /// Router shards. 1 is the differential baseline (bit-identical to a
    /// bare SessionRouter, identity id encoding); production wants a
    /// small multiple of the lane count.
    int shards = 4;
    /// TOTAL concurrent session lanes across all shards; ≤ 0 means
    /// Executor::DefaultConcurrency() (honours QHORN_THREADS). 1 degrades
    /// to synchronous in-caller execution — the differential baseline.
    int threads = 0;
    QuerySession::Options session;
    /// Resume protocol, shared by every shard (see
    /// SessionRouter::Options::resume_mode).
    ResumeMode resume_mode = ResumeMode::kFiber;
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

  /// Session opens place round-robin across shards (placement does not
  /// affect observables; round-robin keeps shards balanced without
  /// coordination beyond one atomic counter).
  SessionId Open(int n, MembershipOracle* user);
  SessionId OpenSimulated(const Query& intended,
                          EvalOptions opts = EvalOptions());
  /// 0 (a typed refusal; nothing opens) when `n` is outside
  /// [1, kMaxVars], like SessionRouter::OpenPending.
  SessionId OpenPending(int n);

  /// Pinned-placement open: the durable layer maps WAL shard i onto
  /// router shard i so one WAL's commit hooks contend with exactly one
  /// router mutex. `shard` must be in [0, shards()); an out-of-range `n`
  /// returns 0 as above.
  SessionId OpenPendingOnShard(int shard, int n);

  bool Submit(SessionId id, Job job);
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// Every shard's lock-free drain, session ids re-encoded to external
  /// form, k-way merged into session-id order.
  std::vector<PendingRound> PendingRounds();

  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers, CommitHook commit);
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The round the session is blocked on (external id form), if any.
  std::optional<PendingRound> pending_round(SessionId id);

  bool Close(SessionId id);
  std::optional<SessionStatus> status(SessionId id);
  int64_t suspensions(SessionId id);

  /// Blocks until no session on any shard can progress without input.
  /// One pass suffices: a job never creates work on another shard.
  void Drain();

  QuerySession& session(SessionId id);

  /// Aggregate counters summed across shards; the shared compiled-query
  /// cache is counted once (not once per shard). Requires no runnable
  /// job, like SessionRouter::stats().
  ServiceStats stats();

  ResumeMode resume_mode() const { return shards_.front()->resume_mode(); }
  int shards() const { return static_cast<int>(shards_.size()); }
  int ShardOf(SessionId id) const {
    return static_cast<int>(id % static_cast<SessionId>(shards_.size()));
  }

  Executor* executor() { return executor_.get(); }
  CompiledQueryCache& compiled_cache() { return cache_; }

 private:
  SessionId Encode(SessionId internal, int shard) const {
    return internal * static_cast<SessionId>(shards_.size()) + shard;
  }
  SessionId Internal(SessionId external) const {
    return external / static_cast<SessionId>(shards_.size());
  }
  /// The shard hosting `external`, or nullptr for ids no shard can host
  /// (≤ 0, or an encoding whose internal part is below the first id).
  SessionRouter* Route(SessionId external);
  int NextShard() {
    return static_cast<int>(next_shard_.fetch_add(1, std::memory_order_relaxed) %
                            shards_.size());
  }

  CompiledQueryCache cache_;
  std::unique_ptr<Executor> executor_;
  std::vector<std::unique_ptr<SessionRouter>> shards_;
  std::atomic<uint64_t> next_shard_{0};
};

}  // namespace qhorn

#endif  // QHORN_SESSION_SHARDED_ROUTER_H_
