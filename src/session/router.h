// SessionRouter — the multi-session service layer over QuerySession.
//
// The paper's workflow is one interactive user per learner; the service
// target is heavy traffic from many concurrent users. The router owns the
// executor and multiplexes N live sessions across it:
//
//   * Each session keeps its own oracle pipeline (transcript → cache →
//     counting → user backend), so per-user state never crosses threads.
//   * Jobs against one session run strictly in submission order, one at a
//     time (QuerySession is not thread-safe and the learning protocol is
//     inherently sequential per user); jobs of different sessions run in
//     parallel on the executor's workers.
//   * Simulated users opened through OpenSimulated share compiled queries
//     via a cache keyed by canonical form (Proposition 4.1: equal forms ⇒
//     identical answers), so a thousand sessions against a hundred target
//     queries compile each query once — and their AsyncOracle backends
//     additionally shard large rounds across the same executor.
//
// Pending-round continuations (OpenPending): a *real* user answers with
// seconds-to-minutes latency, so a session blocked on one must not pin a
// lane. Sessions opened with OpenPending run over a PendingOracle backend:
// the first round that needs the user records a PendingRound and unwinds
// the job (JobSuspended, src/util/suspend.h) — the lane is released the
// moment the unwind reaches the runner, so 256 sessions all blocked on
// users occupy zero threads. The embedding server polls PendingRounds()
// (or renders them as they appear), collects the user's labels, and calls
// ProvideAnswers(id, round_id, answers); the router then resumes the
// session's jobs. How it resumes is the ResumeMode:
//
//   * kFiber (default): the job runs on a Fiber (src/util/fiber.h) and a
//     suspension *parks* instead of unwinding — the whole call stack stays
//     alive on its own mmap'd stack and the lane is released by a context
//     switch. A resume stages the answered round's bits and switches back
//     into the exact frame that asked: O(1) compute per resume, O(rounds)
//     per session, nothing re-run and nothing replayed. The memory traded
//     for that compute is the parked stack (reported as the session's
//     snapshot_bytes while it awaits). Corrections and crash recovery
//     cannot resume a parked stack built over the old answers, so they
//     unwind it (cancel + one last resume) and restart through the
//     full-prefix replay attempt below.
//   * kSnapshot: suspension captured a SessionSnapshot — the
//     copyable decorator state (transcript at the job boundary, cache and
//     counters at the pre-round boundary) — so the resume restores the
//     snapshot, arms a ReplayOracle with *only the newly answered round*,
//     and re-runs just the suspended job; its question prefix is served
//     entirely by the restored cache, so each answered question crosses
//     the user boundary exactly once over the session's whole lifetime
//     (O(rounds) total replay, though the re-walk itself is O(prefix)
//     compute per resume). Completed jobs are never re-run: the job
//     cursor skips them, and a snapshot trades bytes for that compute
//     (ServiceStats.snapshot_bytes; the state is dominated by the
//     transcript + cache, i.e. by questions actually asked). The
//     memory-lean fallback when parked stacks are too dear.
//   * kReplay: the original full-prefix protocol — rebuild fresh
//     decorators, replay *every* answered round at the user boundary and
//     re-run the job log from the start, O(prefix) per resume and
//     O(rounds²) per session. Kept alive as the differential oracle: all
//     three modes are bit-identical in every observable (the workload fuzz
//     and durable crash suites assert fingerprint equality across modes),
//     and replay needs no question cache (snapshot mode requires it — with
//     cache_questions off a kSnapshot request degrades to kReplay; kFiber
//     never re-walks, so it has no cache dependency).
//
// Learners are deterministic functions of the transcript, so either resume
// reaches the next live round without asking anything twice.
//
// Determinism contract (unchanged by continuations): a session's
// observable history depends only on its own job sequence and answer
// sequence, never on scheduling or on how often it suspended — after the
// final resume, per-session transcripts, statistics and learned queries
// are bit-identical to a fully synchronous single-threaded run of the
// same jobs over the same answers (tests/service_router_test.cc and
// tests/continuation_stress_test.cc stress this with up to 256 sessions).
//
// An embedding server has two ways to plug a real user in: synchronously,
// by implementing MembershipOracle (pose the round, block for the labels)
// and passing it to Open(); or asynchronously via OpenPending and the
// PendingRounds()/ProvideAnswers protocol above — the only choice that
// scales past one blocked thread per waiting user.

#ifndef QHORN_SESSION_ROUTER_H_
#define QHORN_SESSION_ROUTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/normalize.h"
#include "src/oracle/pending.h"
#include "src/oracle/pipeline.h"
#include "src/session/session.h"
#include "src/util/checked_mutex.h"
#include "src/util/executor.h"
#include "src/util/fiber.h"
#include "src/util/function_ref.h"
#include "src/util/mpsc.h"

namespace qhorn {

/// Shared compiled-query store. Keyed by (canonical form, guarantee mode):
/// equal keys evaluate identically object for object, so sessions sharing
/// an entry are indistinguishable from sessions compiling their own.
/// Thread-safe; the returned compiled forms are immutable.
///
/// Striped read-mostly layout: the key hash picks one of kStripes
/// independent (shared_mutex, map) pairs, so a hit takes only a shared
/// lock on 1/kStripes of the keyspace — concurrent hits on different
/// stripes never touch the same cache line, concurrent hits on the same
/// stripe share the reader lock, and only a first-time compile of a key
/// briefly writes its own stripe. Sessions across every router shard
/// share one instance (a query compiled once is compiled once service-
/// wide); the hit/miss counters are relaxed atomics folded on read.
class CompiledQueryCache {
 public:
  std::shared_ptr<const CompiledQuery> Get(const Query& query,
                                           const EvalOptions& opts);

  int64_t hits() const;
  int64_t misses() const;

 private:
  struct Key {
    CanonicalForm form;
    bool require_guarantees = false;

    friend bool operator==(const Key& a, const Key& b) {
      return a.require_guarantees == b.require_guarantees && a.form == b.form;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.form.Hash() ^ (k.require_guarantees ? 0x9e3779b97f4a7c15ULL : 0);
    }
  };

  static constexpr size_t kStripes = 16;  // power of two; see StripeFor

  struct alignas(64) Stripe {
    // A stripe is a leaf lock (LockRank::kCacheStripe): compiles happen
    // outside it, so nothing is ever acquired while it is held.
    mutable SharedMutex mutex{"cache-stripe", LockRank::kCacheStripe};
    std::unordered_map<Key, std::shared_ptr<const CompiledQuery>, KeyHash> map
        QHORN_GUARDED_BY(mutex);
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
  };

  /// Remix the (already cached) key hash and take the top bits: the map
  /// inside the stripe consumes the low bits, so stripe choice and bucket
  /// choice stay independent.
  Stripe& StripeFor(size_t hash) {
    static_assert(kStripes == 16, "the >> 60 below selects log2(16) bits");
    return stripes_[(hash * 0x9e3779b97f4a7c15ULL) >> 60];
  }

  std::array<Stripe, kStripes> stripes_;
};

/// Aggregate service counters across every session the router has hosted.
struct ServiceStats {
  int64_t sessions = 0;        ///< sessions opened
  int64_t jobs = 0;            ///< jobs completed
  int64_t learns = 0;          ///< SubmitLearn jobs completed
  int64_t verifies = 0;        ///< SubmitVerify jobs completed
  int64_t revisions = 0;       ///< SubmitRevise jobs completed
  int64_t questions = 0;       ///< questions that reached the users
  int64_t rounds = 0;          ///< user interactions (batch = one round)
  int64_t batched_questions = 0;  ///< questions inside batched rounds
  int64_t cache_hits = 0;      ///< per-session question-cache hits
  int64_t compiled_hits = 0;   ///< shared compiled-query cache hits
  int64_t compiled_misses = 0;  ///< … and misses (one compile each)
  int64_t suspensions = 0;     ///< pending rounds that yielded a lane
  int64_t awaiting_sessions = 0;  ///< sessions currently blocked on a user
  /// Questions served by user-boundary replay stages across all resume
  /// attempts. Fiber resume replays nothing (answers feed the parked
  /// frame directly); snapshot resume replays each answered question
  /// exactly once (== questions answered through the pending protocol);
  /// full-prefix replay resume re-serves the whole prefix per resume
  /// (quadratic). The resume-depth stress test gates on this split.
  int64_t replayed_questions = 0;
  /// Resident parked-resume bytes across sessions currently awaiting a
  /// user — the memory resume trades for the retired replay compute. In
  /// snapshot mode this is SessionSnapshot::MemoryBytes (transcript +
  /// cache); in fiber mode it is the parked stack's mapped size (lazily
  /// committed, so resident use is typically far smaller).
  int64_t snapshot_bytes = 0;
  int64_t corrections = 0;  ///< CorrectAnswer calls accepted
};

/// How a suspended pending session resumes after ProvideAnswers. See the
/// file comment; kDefault resolves to kFiber unless the QHORN_RESUME_MODE
/// environment variable says "snapshot" or "replay" (the differential
/// escape hatches).
enum class ResumeMode {
  kDefault,   ///< resolve from QHORN_RESUME_MODE, else kFiber
  kFiber,     ///< park the live call stack; O(1) switch back per resume
  kSnapshot,  ///< restore the suspension snapshot; replay only new rounds
  kReplay,    ///< rebuild from scratch; replay the full answered prefix
};

const char* ToString(ResumeMode m);

/// Where a session is in its lifecycle, as seen between router calls.
enum class SessionStatus {
  kIdle,         ///< no job queued or running
  kRunning,      ///< a job owns (or is queued for) an executor lane
  kAwaitingUser  ///< suspended on a pending round; occupies no lane
};

/// Result of a ProvideAnswers call. Anything but kResumed leaves the
/// session — pending round included — exactly as it was.
enum class ProvideOutcome {
  kResumed,              ///< answers accepted; the session is re-running
  kUnknownSession,       ///< no such session id
  kSessionClosed,        ///< session was closed
  kNotAwaiting,          ///< session has no pending round
  kStaleRound,           ///< round_id is not the currently pending round
  kAnswerCountMismatch,  ///< answers.size() != pending questions
  kLogWriteFailed,       ///< durable commit hook refused; nothing mutated
};

const char* ToString(ProvideOutcome o);

/// Multiplexes concurrent QuerySessions over a shared executor.
class SessionRouter {
 public:
  using SessionId = int64_t;
  /// A unit of session work, run on an executor lane with exclusive
  /// access to the session. For sessions opened with OpenPending, a job
  /// may be run *multiple times* (each resume replays the job sequence
  /// from the start), so raw Submit jobs on pending sessions must be
  /// idempotent in their external effects; the typed submits are.
  using Job = std::function<void(QuerySession&)>;

  struct Options {
    /// Concurrent session lanes (worker threads running session jobs);
    /// ≤ 0 means Executor::DefaultConcurrency() (which honours
    /// QHORN_THREADS). 1 degrades to synchronous in-caller execution —
    /// the differential baseline. The router sizes its executor one lane
    /// wider than this, since the thread that submits jobs sleeps in
    /// Drain() rather than running them. Ignored when `executor` is set.
    int threads = 0;
    QuerySession::Options session;
    /// Resume protocol for pending sessions. kDefault resolves from the
    /// QHORN_RESUME_MODE environment variable at construction ("replay" →
    /// kReplay, "snapshot" → kSnapshot, anything else → kFiber). Snapshot
    /// resume requires the question cache, so `session.cache_questions ==
    /// false` degrades a kSnapshot request to kReplay; fiber resume never
    /// re-walks a prefix and works either way.
    ResumeMode resume_mode = ResumeMode::kDefault;
    /// Borrowed executor (how ShardedRouter shares one pool across its
    /// shards). Non-null: the router posts to it instead of owning a pool,
    /// `threads` is ignored, and the *owner* must keep the executor alive
    /// — and joined — past this router's destruction (drain every sharing
    /// router, destroy the executor, then the routers; see
    /// ShardedRouter::~ShardedRouter for the canonical order).
    Executor* executor = nullptr;
    /// Borrowed compiled-query cache (shared across router shards so a
    /// query compiles once service-wide). Non-null: used instead of the
    /// router-owned cache; must outlive the router.
    CompiledQueryCache* compiled_cache = nullptr;
  };

  SessionRouter();
  explicit SessionRouter(Options options);
  /// Drains outstanding runnable jobs before shutting the executor down.
  /// Sessions still awaiting user answers are abandoned (their pending
  /// rounds die with the router).
  ~SessionRouter();

  SessionRouter(const SessionRouter&) = delete;
  SessionRouter& operator=(const SessionRouter&) = delete;

  /// Opens a session over a caller-owned user oracle. The oracle must
  /// outlive the router and is used only from this session's jobs (one at
  /// a time), so it need not be thread-safe — but it must not be shared
  /// with another session.
  SessionId Open(int n, MembershipOracle* user);

  /// Opens a session against a simulated user holding `intended`: the
  /// compiled form comes from the shared cache and rounds are sharded
  /// across the router's executor (AsyncOracle backend). The router owns
  /// the backend.
  SessionId OpenSimulated(const Query& intended,
                          EvalOptions opts = EvalOptions());

  /// Opens a session over a *pending* (real, asynchronous) user: every
  /// round suspends the job and surfaces through PendingRounds() until
  /// ProvideAnswers feeds the labels back. The router owns the backend.
  /// Returns 0 (never a valid id) and opens nothing when `n` is outside
  /// [1, kMaxVars] — the typed refusal for a hostile open.
  SessionId OpenPending(int n);

  /// Enqueues a job for the session. Jobs of one session run in
  /// submission order; jobs of different sessions run concurrently.
  /// Returns false — and enqueues nothing — for an unknown or closed
  /// session id.
  bool Submit(SessionId id, Job job);

  /// Typed conveniences (counted in ServiceStats).
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// All rounds currently awaiting user answers, by value, ordered by
  /// session id. The embedding server's poll: render each round's
  /// questions to its user, then call ProvideAnswers with the labels.
  ///
  /// Drained through a lock-free MPSC announcement queue: a suspending
  /// runner copies its round into a heap node and publishes it with one
  /// atomic push. Each node carries a `retired` flag, which ProvideAnswers,
  /// CorrectAnswer and Close set — under the router mutex, through the
  /// session's pointer to its current node — when the round stops being
  /// answerable. The poll keeps the nodes it has seen in one list sorted
  /// by session id: it sorts the newly popped batch, merges it in, frees
  /// every node whose flag is set and copies out the rest. It reads only
  /// its own nodes — never a session's state and never the router mutex —
  /// so polling cannot stall (or be stalled by) opens, submits or resumes,
  /// and the result needs no sort of its own. After Drain() the result is
  /// exact; a poll racing live runners may transiently omit a round that
  /// is suspending or include one being answered right now (a stale reply
  /// then bounces off kStaleRound/kNotAwaiting, exactly like any hostile
  /// duplicate).
  std::vector<PendingRound> PendingRounds();

  /// Announcement nodes the poll still holds after its last pass: one per
  /// round that was awaiting then, none for a retired round. A health
  /// gauge (and the test that retired nodes are freed).
  size_t retained_announcements();

  /// Feeds a user's labels back into a suspended session. `round_id` must
  /// be the id carried by the session's current PendingRound and
  /// `answers.size()` must equal its question count; anything else is
  /// rejected without touching the session (the transcript cannot be
  /// corrupted by a stale or malformed reply). On kResumed the session's
  /// jobs re-run with the answered prefix replayed; answers are consumed
  /// by value, so the caller's storage is free immediately.
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// A durable wrapper's write-ahead barrier: invoked once, after every
  /// validation has passed and before any state mutates, while the call
  /// still holds the router lock (so no concurrent call can interleave
  /// between the hook and the fold). Return false to veto: the call
  /// reports kLogWriteFailed and the session — pending round included —
  /// is exactly as it was, so the caller may retry the identical call
  /// once its log is healthy again.
  using CommitHook = FunctionRef<bool()>;

  /// ProvideAnswers with a durable commit barrier (DurableRouter's path;
  /// the three-argument form commits unconditionally).
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers, CommitHook commit);

  /// The §5 correction workflow for pending sessions: the user flips their
  /// recorded answer to `entry_index` (an index into the session's answered
  /// user-boundary transcript, in answer order). Only legal while the
  /// session is awaiting a round (kNotAwaiting otherwise — a running
  /// session's runner owns its state; an idle session has nothing to
  /// correct that Close + re-learn would not do better). The answered
  /// entries after the flipped one are discarded (they were answered to a
  /// question stream computed from the bad answer) and the job log restarts
  /// from job 0 through the ordinary resume path: the surviving prefix is
  /// replayed — those questions depend only on answers before the flip, so
  /// they re-align question for question — and the learner diverges exactly
  /// at the corrected entry, re-asking everything downstream fresh. The
  /// abandoned pending round's id is never reused (round ids stay
  /// monotonic), so a stale ProvideAnswers still reports kStaleRound.
  ///
  /// Out-of-range `entry_index` reports kAnswerCountMismatch. On kResumed
  /// the re-run recounts every re-completed job in ServiceStats.jobs (the
  /// counters count completions, not distinct jobs).
  ///
  /// This supersedes the old blanket refusal of mid-suspension corrections
  /// (QuerySession::CorrectAndRelearn still refuses in continuation mode —
  /// it relearns synchronously inside the call, which a pending backend
  /// would immediately suspend out of). Works in both resume modes; the
  /// restart attempt is a full-prefix replay even under kSnapshot (the
  /// correction invalidates the captured snapshot).
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The resolved resume protocol this router runs (never kDefault).
  ResumeMode resume_mode() const { return resume_mode_; }

  /// The round the session is blocked on, if any — nullopt for unknown,
  /// closed, or not-awaiting sessions. A copy, so the recovery replay can
  /// match surfaced rounds against logged answers without racing the
  /// runner.
  std::optional<PendingRound> pending_round(SessionId id);

  /// Marks a session closed: subsequent Submit/ProvideAnswers are
  /// rejected. A pending round awaiting answers is abandoned; already
  /// queued jobs of a direct session still drain. Returns false for an
  /// unknown or already-closed id.
  bool Close(SessionId id);

  /// The session's lifecycle state, for the embedding server's dashboard
  /// (and the continuation tests). Like every id-taking protocol call,
  /// tolerant of garbage: nullopt for an unknown id.
  std::optional<SessionStatus> status(SessionId id);

  /// Times this session yielded its lane on a pending round so far;
  /// -1 for an unknown id.
  int64_t suspensions(SessionId id);

  /// Blocks until no session can make progress without more input: every
  /// session is idle or awaiting user answers. With pending sessions in
  /// play the idiom is a poll loop —
  ///   for (;;) { router.Drain();
  ///              auto rounds = router.PendingRounds();
  ///              if (rounds.empty()) break;
  ///              /* answer them */ }
  /// — which terminates once every session has run out of jobs.
  void Drain();

  /// The session, for inspection between jobs. The caller must ensure no
  /// job is running (e.g. after Drain); the router does not lock it. A
  /// session awaiting answers exposes its partially re-run state — only
  /// after its final job completes do its observables equal the
  /// synchronous run's.
  QuerySession& session(SessionId id);

  /// Aggregate counters. Requires no runnable job (call after Drain;
  /// sessions awaiting user answers are fine).
  ServiceStats stats();

  Executor* executor() { return exec_; }
  CompiledQueryCache& compiled_cache() { return *cache_; }

 private:
  enum class JobKind { kOther, kLearn, kVerify, kRevise };
  struct JobRecord {
    Job fn;
    JobKind kind = JobKind::kOther;
  };

  /// A parked round as the poll path sees it: the round payload copied at
  /// suspension, pushed onto announced_rounds_ by the suspending runner.
  /// The poll reports a node while `retired` is clear and frees it once
  /// set; the payload never changes after the push.
  struct RoundAnnouncement {
    explicit RoundAnnouncement(PendingRound r) : round(std::move(r)) {}
    PendingRound round;
    std::atomic<bool> retired{false};
  };
  using AnnouncementNode = MpscStack<RoundAnnouncement>::Node;

  // Locking protocol: the map shape, queue, job log, counters, the
  // awaiting/running/closed flags and the announcement pointer are guarded
  // by the router's mutex_.
  // The resume-state fields (answered_entries, snapshot, staged_answers,
  // fiber*) follow an ownership handoff instead: while `running` is true
  // they belong exclusively to the runner task and are read/written
  // without the lock — a protocol thread-safety analysis cannot express
  // (TSA has no "guarded by mutex_ OR owned by the runner"), and a
  // nested struct cannot name the enclosing router's mutex_ in a
  // QHORN_GUARDED_BY anyway. The per-field comments say which regime
  // each field is under; the cross-thread edges are TSan-covered by the
  // continuation stress suites.
  struct SessionState {
    std::unique_ptr<QuerySession> session;
    std::unique_ptr<MembershipOracle> owned_backend;  // OpenSimulated/Pending
    PendingOracle* pending_backend = nullptr;  // null for direct sessions
    // Direct sessions consume their queue; pending sessions keep the full
    // job log (resumes re-run it from the start) plus the completed count.
    std::deque<JobRecord> queue;
    std::vector<JobRecord> job_log;
    size_t jobs_completed = 0;
    // The user-boundary transcript: every answered round, flattened in
    // order, replayed below the decorators on each re-run. round field =
    // the pending-protocol round id the entry was answered in.
    std::vector<TranscriptEntry> answered_entries;
    int64_t answered_rounds = 0;
    std::optional<PendingRound> pending_round;  // set while awaiting
    // Snapshot-resume state. `snapshot` is captured at each suspension;
    // `entries_cursor` marks how much of answered_entries the snapshot has
    // already absorbed (the restore replays only the suffix beyond it).
    // `pipeline_live` records that the last attempt exited by *completing*
    // the job log, so the session's live pipeline is current and jobs
    // submitted later run directly on it — no restore, no replay.
    SessionSnapshot snapshot;
    size_t snapshot_bytes = 0;
    size_t entries_cursor = 0;
    bool pipeline_live = false;
    // Fiber-resume state (kFiber). `fiber` is the parked continuation —
    // the suspended job's live call stack. `staged_answers` carries the
    // answered round's bits from ProvideAnswers to the resuming runner.
    // `fiber_cancel` marks a parked stack a correction abandoned: the
    // runner unwinds it (cancel + one last resume) before the restart
    // attempt. `fiber_jobs_run` is the body's progress cursor — jobs fully
    // run this attempt — read by the host after each switch back, so all
    // completion bookkeeping stays on the host side of the switch.
    std::unique_ptr<Fiber> fiber;
    std::vector<bool> staged_answers;
    bool fiber_cancel = false;
    size_t fiber_jobs_run = 0;
    int64_t suspensions = 0;
    bool awaiting = false;  // suspended; ProvideAnswers will resume
    bool running = false;   // a runner task currently owns this session
    bool closed = false;
    // The announcement node of the round this session awaits (null while
    // not awaiting). Set when the round is published; RetireAnnouncement
    // flags the node and drops the pointer, after which only the poll
    // touches the node (and frees it).
    AnnouncementNode* announcement = nullptr;
  };

  SessionId OpenInternal(int n, MembershipOracle* user,
                         std::unique_ptr<MembershipOracle> owned_backend,
                         PendingOracle* pending_backend);
  bool SubmitInternal(SessionId id, Job job, JobKind kind);
  /// Shared body of both ProvideAnswers overloads; `commit` null means
  /// commit unconditionally (FunctionRef itself is non-nullable).
  ProvideOutcome ProvideAnswersInternal(SessionId id, int64_t round_id,
                                        BitSpan answers, CommitHook* commit);
  /// Executor task: runs a direct session's queued jobs until the queue is
  /// empty, then releases ownership.
  void RunSession(SessionState* state);
  /// Executor task: one *attempt* loop for a pending session — rebuild the
  /// pipeline with the answered prefix replayed, re-run the job log, and
  /// either finish (queue empty) or catch the suspension, publish the
  /// pending round and release the lane. Dispatches to the fiber runner
  /// under ResumeMode::kFiber.
  void RunPendingSession(SessionState* state);
  /// The kFiber runner: resumes the parked continuation (or starts a fresh
  /// attempt on a new fiber), then either publishes the round it parked on
  /// or folds the completed jobs into the service counters.
  void RunPendingSessionFiber(SessionState* state);
  /// Cancels and unwinds a parked fiber (correction restart, closed
  /// session teardown): the parked wait-site throws, the stack unwinds to
  /// the fiber body's boundary, and the fiber is destroyed. Must be
  /// called with no checked lock held: the resume switches into the
  /// parked stack, and the unwind may run arbitrary destructor code.
  void UnwindFiber(SessionState* state);
  /// Bumps jobs_done_ and the per-kind counter.
  void CompleteJob(JobKind kind) QHORN_REQUIRES(mutex_);
  /// Publishes the session's freshly set pending_round to the poll.
  void AnnounceRound(SessionState* state) QHORN_REQUIRES(mutex_);
  /// Marks the session's current announcement dead (the poll frees it)
  /// and forgets it.
  void RetireAnnouncement(SessionState* state) QHORN_REQUIRES(mutex_);
  SessionState* FindSession(SessionId id) QHORN_REQUIRES(mutex_);

  Options options_;
  ResumeMode resume_mode_ = ResumeMode::kSnapshot;  // resolved, never kDefault
  std::unique_ptr<Executor> owned_executor_;  // null when Options.executor set
  Executor* exec_ = nullptr;                  // owned or borrowed, never null
  std::unique_ptr<CompiledQueryCache> owned_cache_;  // null when borrowed
  CompiledQueryCache* cache_ = nullptr;

  // Guards the sessions_ map shape, the per-session queues/bookkeeping
  // (SessionState fields — see the struct comments for the runner-owned
  // exceptions) and the service counters. One per shard; a DurableRouter
  // commit hook runs while exactly one of these is held
  // (LockRank::kRouterShard — the rank checker asserts the invariant in
  // ProvideAnswersInternal).
  Mutex mutex_{"router-shard", LockRank::kRouterShard};
  CondVar idle_cv_;
  // The pending-round drain: suspending runners publish here (one push per
  // suspension, lock-free as seen by the consumer), PendingRounds pops the
  // batch and merges it into live_announcements_ under poll_mutex_ — so the
  // poll path never takes mutex_ and suspension/resume on this router never
  // contends with another shard's opens through the facade.
  MpscStack<RoundAnnouncement> announced_rounds_;
  // Serializes PendingRounds consumers. A leaf (LockRank::kRouterPoll):
  // only the announcement stack and the nodes' flags are touched under it,
  // never mutex_.
  Mutex poll_mutex_{"router-poll", LockRank::kRouterPoll};
  // Every node the poll has popped and not yet freed, sorted by session
  // id. `fresh_announcements_` and `merged_announcements_` are the poll's
  // scratch lists, kept to reuse their capacity.
  std::vector<std::unique_ptr<AnnouncementNode>> live_announcements_
      QHORN_GUARDED_BY(poll_mutex_);
  std::vector<std::unique_ptr<AnnouncementNode>> fresh_announcements_
      QHORN_GUARDED_BY(poll_mutex_);
  std::vector<std::unique_ptr<AnnouncementNode>> merged_announcements_
      QHORN_GUARDED_BY(poll_mutex_);
  std::unordered_map<SessionId, std::unique_ptr<SessionState>> sessions_
      QHORN_GUARDED_BY(mutex_);
  SessionId next_id_ QHORN_GUARDED_BY(mutex_) = 1;
  // Jobs that can make progress right now: queued + running jobs of
  // direct sessions, plus uncompleted jobs of pending sessions that are
  // not blocked on a user. A suspension subtracts its session's
  // uncompleted jobs; ProvideAnswers adds them back. Drain waits for 0.
  int64_t runnable_jobs_ QHORN_GUARDED_BY(mutex_) = 0;
  // Counters bumped at job completion (stats() folds in session counters).
  int64_t jobs_done_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t learns_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t verifies_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t revisions_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t suspensions_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t corrections_ QHORN_GUARDED_BY(mutex_) = 0;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_ROUTER_H_
