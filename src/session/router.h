// SessionRouter — the multi-session service layer over QuerySession.
//
// The paper's workflow is one interactive user per learner; the service
// target is heavy traffic from many concurrent users. The router owns the
// executor and multiplexes N live sessions across it:
//
//   * Each session keeps its own oracle chain (cache → counting →
//     PendingOracle, with a correction's replay stage above the backend),
//     so per-user state never crosses threads. The cache's ask-ordered
//     log is the session's user-boundary transcript — every question that
//     reached the user, once, with its answer — and the one place a
//     correction restarts the session from: the router keeps no copy of
//     answered questions, not even their count.
//   * Jobs against one session run strictly in submission order, one at a
//     time (QuerySession is not thread-safe and the learning protocol is
//     inherently sequential per user); jobs of different sessions run in
//     parallel on the executor's workers.
//
// Every session is a pending session: a user answers with
// seconds-to-minutes latency, so a session blocked on one must not pin a
// lane. Each session's jobs run on a Fiber (src/util/fiber.h) over a
// PendingOracle backend: the first round that needs the user *parks* the
// fiber on that round — the whole call stack stays alive on its own
// mmap'd stack and the lane is released by a context switch, so 256
// sessions all blocked on users occupy zero threads. The parked
// frame is the one place a parked round lives: its questions and its
// answer storage stay in the frame that asked, and the router keeps only
// the session's count of answered rounds, which is the round's id. The
// runner copies the questions once, on the lane, into the PendingRound
// it announces. The embedding server polls PendingRounds() for the rounds
// announced since its last poll, collects the user's labels, and calls
// ProvideAnswers(id, round_id, answers); the router writes the bits into
// the parked frame and switches back into it: O(1) compute per resume,
// O(rounds) per session, nothing re-run and nothing replayed. The memory
// traded for that compute is the parked stack: its resident pages, which
// stats() measures as the session's snapshot_bytes while it awaits. A
// park and a resume are each one register-only stack switch, no syscall.
// The parked cache logs the answered bits when the frame returns.
//
// A correction is the one reason a session restarts, and the session owns
// the restart (QuerySession::Restart, which a CorrectAndRelearn job runs
// too). A parked stack built over the old answer cannot be resumed, so
// the runner unwinds it (cancel + one last resume, which throws
// JobSuspended from the parked wait-site, src/util/suspend.h), restarts
// the session at the corrected entry — its answered prefix, truncated
// there and flipped, served by a replay stage directly above the backend
// — and re-runs the job log on a fresh fiber. Learners are deterministic
// functions of the transcript, so the restart reaches the next live round
// without asking anything twice.
//
// Determinism contract (unchanged by continuations): a session's
// observable history depends only on its own job sequence and answer
// sequence, never on scheduling or on how often it suspended — after the
// final resume, per-session transcripts, statistics and learned queries
// are bit-identical to a fully synchronous single-threaded run of the
// same jobs over the same answers (tests/service_router_test.cc and
// tests/continuation_stress_test.cc stress this with up to 256 sessions).
//
// Lock shards: the session space is split across Options.shards shards,
// each with its own mutex, idle condvar, session map, announced-round
// vector and counters. Session `id` lives in shard `id mod shards`, so
// every id-taking call locks exactly one shard and protocol calls against
// different shards never touch a shared line. Router-wide there is only
// the executor (lanes are a machine-wide resource: Options.threads is the
// total lane count) and one atomic id counter. Sessions are independent,
// so a session's observables never depend on the shard count; at
// shards == 1 the router is one mutex over every session.
//
// An embedding server plugs a user in through OpenPending and the
// PendingRounds()/ProvideAnswers protocol above; a simulated user is just
// an answerer of that protocol in the caller's process (FleetDriver's
// hostile arm is one). Code that wants a synchronous user drives a bare
// QuerySession instead, which is also the service's differential
// reference.
//
// Lock order (enforced at runtime by the rank checker, src/util/
// lock_ranks.h): one shard mutex (kRouterShard) → that shard's WAL
// (kWalShard, DurableRouter's commit hooks) → the filesystem
// (kFaultFs/kFs). Same-rank nesting is forbidden, so no call path holds
// two shard mutexes at once, and a commit hook runs under exactly one.

#ifndef QHORN_SESSION_ROUTER_H_
#define QHORN_SESSION_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/oracle/pending.h"
#include "src/session/session.h"
#include "src/util/checked_mutex.h"
#include "src/util/executor.h"
#include "src/util/fiber.h"
#include "src/util/function_ref.h"

namespace qhorn {

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
  int64_t suspensions = 0;     ///< pending rounds that yielded a lane
  int64_t awaiting_sessions = 0;  ///< sessions currently blocked on a user
  /// Questions served by user-boundary replay stages
  /// (QuerySession::replayed_questions). A resume replays nothing (the
  /// answers feed the parked frame directly); only a correction restart
  /// re-serves its surviving prefix. The resume-depth stress test gates on
  /// this.
  int64_t replayed_questions = 0;
  /// Parked-stack bytes across sessions currently awaiting a user — the
  /// memory a parked resume trades for replay compute: each stack's
  /// resident pages, measured when stats() is called
  /// (Fiber::ResidentBytes).
  int64_t snapshot_bytes = 0;
  int64_t corrections = 0;  ///< CorrectAnswer calls accepted
};

/// The one resume protocol (see the file comment). Read by nothing; kept
/// only because the frozen end-to-end benchmark assigns
/// SessionRouter::Options::resume_mode, and goes with that field.
enum class ResumeMode {
  kFiber,  ///< park the live call stack; O(1) switch back per resume
};

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
  /// access to the session. A job may be run *multiple times* (a
  /// CorrectAnswer restarts the job log from job 0), so raw Submit jobs
  /// must be idempotent in their external effects; the typed submits are.
  using Job = std::function<void(QuerySession&)>;

  struct Options {
    /// Concurrent session lanes (worker threads running session jobs);
    /// ≤ 0 means Executor::DefaultConcurrency() (which honours
    /// QHORN_THREADS). 1 runs every job inline in the calling thread.
    int threads = 0;
    /// Lock shards (see the file comment); ≥ 1. Session `id` lives in
    /// shard `id mod shards`. Changes which mutexes exist, never what a
    /// session observes.
    int shards = 1;
    QuerySession::Options session;
    /// Unread: fiber resume is the only protocol. Kept only because the
    /// frozen end-to-end benchmark (bench_e2e/e2e_bench.cc) assigns it;
    /// the next change to that benchmark drops this field and ResumeMode.
    ResumeMode resume_mode = ResumeMode::kFiber;
  };

  SessionRouter();
  explicit SessionRouter(Options options);
  /// Drains outstanding runnable jobs before shutting the executor down.
  /// Sessions still awaiting user answers are abandoned (their pending
  /// rounds die with the router).
  ~SessionRouter();

  SessionRouter(const SessionRouter&) = delete;
  SessionRouter& operator=(const SessionRouter&) = delete;

  /// Opens a session over a pending (asynchronous) user: every round
  /// suspends the job and surfaces through PendingRounds() until
  /// ProvideAnswers feeds the labels back. The router owns the backend.
  /// The id is the counter's next one (1, 2, 3, … at any shard count),
  /// skipping ids a caller-chosen open already holds. Returns 0 (never a
  /// valid id) and opens nothing, consuming no id, when `n` is outside
  /// [1, kMaxVars] — the typed refusal for a hostile open. Safe to call
  /// from several threads.
  SessionId OpenPending(int n);

  /// OpenPending under an id the caller picks — how DurableRouter opens a
  /// session at its logged id, in the shard that pairs with its WAL file.
  /// Returns `id`, or 0 and opens nothing when `id` ≤ 0, `id` is already
  /// in use or `n` is out of range as above.
  SessionId OpenPendingAt(SessionId id, int n);

  /// Enqueues a job for the session. Jobs of one session run in
  /// submission order; jobs of different sessions run concurrently.
  /// Returns false — and enqueues nothing — for an unknown or closed
  /// session id.
  bool Submit(SessionId id, Job job);

  /// Typed conveniences (counted in ServiceStats).
  bool SubmitLearn(SessionId id);
  bool SubmitVerify(SessionId id, Query candidate);
  bool SubmitRevise(SessionId id, Query candidate);

  /// The rounds announced since the last poll and still awaiting answers,
  /// by value, ordered by session id. The embedding server's poll: render
  /// each round's questions to its user, then call ProvideAnswers with the
  /// labels.
  ///
  /// Edge-triggered (like epoll's EPOLLET): each announced round is
  /// delivered by exactly one poll, and a round answered, corrected or
  /// closed before that poll is never delivered. A suspending runner
  /// copies its round's questions out of the parked frame on its lane,
  /// outside every lock, and appends the copy to a plain vector under the
  /// shard mutex it takes anyway; the poll swaps each shard's vector out
  /// in one short critical section per shard, then concatenates and sorts
  /// the batches once outside every lock — O(new rounds) per poll,
  /// whatever the number of parked sessions. Retiring a round that no
  /// poll has taken yet removes it from the vector in place (see
  /// Shard::RetireRound).
  /// The poll keeps no state between calls, so concurrent pollers get
  /// disjoint batches whose union is every announced round. To re-read a
  /// round already delivered, use pending_round(id). After Drain() and one
  /// more poll, the rounds delivered and not yet answered or closed are
  /// exactly the rounds awaiting; a poll racing live runners may deliver a
  /// round being answered right now (a stale reply then bounces off
  /// kStaleRound/kNotAwaiting, exactly like any hostile duplicate).
  std::vector<PendingRound> PendingRounds();

  /// Feeds a user's labels back into a suspended session. `round_id` must
  /// be the id carried by the session's current PendingRound and
  /// `answers.size()` must equal its question count; anything else is
  /// rejected without touching the session (the transcript cannot be
  /// corrupted by a stale or malformed reply). On kResumed the answers
  /// are copied into the parked frame, under the shard lock, so the
  /// caller's storage is free immediately, and the session's parked fiber
  /// resumes with them.
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers);

  /// A durable wrapper's write-ahead barrier: invoked once, after every
  /// validation has passed and before any state mutates, while the call
  /// still holds the session's shard lock (so no concurrent call can
  /// interleave between the hook and the fold). Return false to veto: the call
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
  /// user-boundary prefix, QuerySession::answered_questions(), in answer
  /// order). Only legal while the
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
  /// The restart is QuerySession::Restart followed by a full-prefix replay
  /// on a fresh fiber: the parked stack was built over the old answer and
  /// is unwound first. A job that calls QuerySession::CorrectAndRelearn
  /// runs the same restart inside the job, and parks and resumes like any
  /// other job; a later CorrectAnswer indexes the prefix that restart
  /// left.
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The round the session is blocked on, if any — nullopt for unknown,
  /// closed, or not-awaiting sessions. A copy of the parked frame's
  /// questions, made under the shard lock: the one way to re-read a round
  /// PendingRounds() already delivered.
  std::optional<PendingRound> pending_round(SessionId id);

  /// Marks a session closed: subsequent Submit/ProvideAnswers are
  /// rejected. A pending round awaiting answers is abandoned, and a stack
  /// parked on it is unwound on a lane right after the close (inline at
  /// one lane; Drain waits for it), so its mapping and learner frames go
  /// with the close, not with the router. Returns false for an unknown or
  /// already-closed id.
  bool Close(SessionId id);

  /// Close with a durable commit barrier, run like ProvideAnswers': after
  /// the id is known to name an open session, before it closes, under
  /// the session's shard lock. A veto returns false with the session
  /// still open.
  bool Close(SessionId id, CommitHook commit);

  /// The session's lifecycle state, for the embedding server's dashboard
  /// (and the continuation tests). Like every id-taking protocol call,
  /// tolerant of garbage: nullopt for an unknown id.
  std::optional<SessionStatus> status(SessionId id);

  /// Times this session yielded its lane on a pending round so far;
  /// -1 for an unknown id.
  int64_t suspensions(SessionId id);

  /// Blocks until no session can make progress without more input: every
  /// session is idle or awaiting user answers. Drains shard by shard; one
  /// pass suffices, since a job never creates work in another shard. With
  /// pending sessions in play the idiom is a poll loop —
  ///   for (;;) { router.Drain();
  ///              auto rounds = router.PendingRounds();
  ///              if (rounds.empty()) break;
  ///              /* answer every one of them */ }
  /// — which terminates once every session has run out of jobs. A loop
  /// that answers only some rounds must keep the rest itself: the poll
  /// delivers each round once.
  void Drain();

  /// The session, for inspection between jobs. The caller must ensure no
  /// job is running (e.g. after Drain); the router does not lock it. A
  /// session awaiting answers exposes its partially re-run state — only
  /// after its final job completes do its observables equal the
  /// synchronous run's.
  QuerySession& session(SessionId id);

  /// Aggregate counters, summed over the shards. Requires no runnable job
  /// (call after Drain; sessions awaiting user answers are fine).
  ServiceStats stats();

  Executor* executor() { return exec_.get(); }

 private:
  enum class JobKind { kOther, kLearn, kVerify, kRevise };
  struct JobRecord {
    Job fn;
    JobKind kind = JobKind::kOther;
  };

  struct Shard;

  // Locking protocol: the job log, the awaiting/running/closed flags and
  // the announcement slot are guarded by the mutex of the session's
  // shard, and so are the backend's parked round and the session's
  // answered prefix while the session awaits. The resume-state fields
  // (correction, session, fiber*) follow an ownership handoff instead:
  // while `running` is true they belong exclusively to the runner task
  // and are read/written without the lock — a protocol thread-safety
  // analysis cannot express (TSA has no "guarded by the shard mutex OR
  // owned by the runner"), and a session cannot name its shard's mutex in
  // a QHORN_GUARDED_BY anyway.
  // The per-field comments say which regime each field is under; the
  // cross-thread edges are TSan-covered by the continuation stress suites.
  struct SessionState {
    // This session's id, and the shard hosting it (`id mod shards`); set
    // at open.
    SessionId id = 0;
    Shard* shard = nullptr;
    // Declared before the session, whose chain points at it. While the
    // session awaits, its parked_questions() are the pending round.
    PendingOracle backend;
    std::unique_ptr<QuerySession> session;
    // The full job log (a correction restart re-runs it from the start)
    // plus the completed count.
    std::vector<JobRecord> job_log;
    size_t jobs_completed = 0;
    // The answered user-boundary questions live once, in the session
    // (CorrectAnswer range-checks QuerySession::answered_questions()); the
    // router keeps the count of answered rounds, the id of the round the
    // session parks on next (or awaits).
    int64_t answered_rounds = 0;
    // Set by CorrectAnswer: the runner restarts the session at this entry
    // (QuerySession::Restart) and re-runs the job log from job 0. Without
    // it a fresh attempt runs the uncompleted jobs on the live session.
    std::optional<size_t> correction;
    // Fiber state. `fiber` is the parked continuation — the suspended
    // job's live call stack; a pending `correction` makes the runner
    // unwind it (cancel + one last resume) before the restart attempt.
    // `fiber_jobs_run` is the body's progress cursor — jobs fully run this
    // attempt — read by the host after each switch back, so all completion
    // bookkeeping stays on the host side of the switch.
    std::unique_ptr<Fiber> fiber;
    size_t fiber_jobs_run = 0;
    int64_t suspensions = 0;
    bool awaiting = false;  // suspended; ProvideAnswers will resume
    bool running = false;   // a runner task currently owns this session
    bool closed = false;
    // Where this session's undelivered round sits in its shard's
    // announced_rounds. Valid only while announced_batch equals the
    // shard's announce_batch: a poll bumps that counter as it takes the
    // vector, which invalidates every slot at once.
    size_t announced_slot = 0;
    uint64_t announced_batch = 0;
  };

  // One lock shard. Its mutex guards the map shape, the per-session
  // bookkeeping of the sessions it hosts (SessionState fields — see the
  // struct comments for the runner-owned exceptions), the announced
  // rounds and the counters. A DurableRouter commit hook (ProvideAnswers
  // or Close) runs while exactly one shard mutex is held
  // (LockRank::kRouterShard — the rank checker forbids nesting two, and
  // ProvideAnswersInternal asserts it before running its hook). Aligned
  // to two cache lines (the adjacent-line prefetcher pulls pairs), so
  // two shards' mutexes and counters never share a line.
  struct alignas(128) Shard {
    /// Folds the session's jobs the last attempt ran up to `jobs_run`
    /// into its completed count, jobs_done and the per-kind counters, and
    /// takes them off runnable_jobs.
    void CompleteJobs(SessionState* state, size_t jobs_run)
        QHORN_REQUIRES(mutex);
    /// Publishes the session's freshly parked round to the next poll.
    void AnnounceRound(SessionState* state, PendingRound round)
        QHORN_REQUIRES(mutex);
    /// The session's round stops being answerable: if no poll has taken
    /// it yet, remove it from announced_rounds (the last entry moves into
    /// its slot), so it is never delivered.
    void RetireRound(SessionState* state) QHORN_REQUIRES(mutex);
    /// The hosted session `id`; CHECK-fails if there is none.
    SessionState* Find(SessionId id) QHORN_REQUIRES(mutex);

    Mutex mutex{"router-shard", LockRank::kRouterShard};
    CondVar idle_cv;
    // Rounds announced since the last poll, at most one per session, in
    // no particular order. PendingRounds swaps the vector out and bumps
    // announce_batch, which starts at 1 so a fresh session's batch (0)
    // never matches.
    std::vector<PendingRound> announced_rounds QHORN_GUARDED_BY(mutex);
    uint64_t announce_batch QHORN_GUARDED_BY(mutex) = 1;
    std::unordered_map<SessionId, std::unique_ptr<SessionState>> sessions
        QHORN_GUARDED_BY(mutex);
    // Jobs that can make progress right now: uncompleted jobs of hosted
    // sessions that are not blocked on a user. A suspension subtracts its
    // session's uncompleted jobs; ProvideAnswers adds them back. Drain
    // waits for 0.
    int64_t runnable_jobs QHORN_GUARDED_BY(mutex) = 0;
    // Counters bumped at job completion (stats() folds in session
    // counters).
    int64_t jobs_done QHORN_GUARDED_BY(mutex) = 0;
    int64_t learns QHORN_GUARDED_BY(mutex) = 0;
    int64_t verifies QHORN_GUARDED_BY(mutex) = 0;
    int64_t revisions QHORN_GUARDED_BY(mutex) = 0;
    int64_t suspensions QHORN_GUARDED_BY(mutex) = 0;
    int64_t corrections QHORN_GUARDED_BY(mutex) = 0;
  };

  /// The shard that hosts `id` if any session does. Total over garbage
  /// ids: an id ≤ 0 maps to some shard, which hosts no such session.
  Shard& ShardFor(SessionId id) {
    return *shards_[static_cast<uint64_t>(id) % shards_.size()];
  }
  /// Opens under `id`, or under the counter's next free id when `id` is 0.
  SessionId OpenInternal(SessionId id, int n);
  bool SubmitInternal(SessionId id, Job job, JobKind kind);
  /// Shared body of both ProvideAnswers overloads; `commit` null means
  /// commit unconditionally (FunctionRef itself is non-nullable).
  ProvideOutcome ProvideAnswersInternal(SessionId id, int64_t round_id,
                                        BitSpan answers, CommitHook* commit);
  /// Executor task: resumes the session's parked continuation (or starts
  /// a fresh attempt on a new fiber), then either publishes the round it
  /// parked on and releases the lane, or folds the completed jobs into
  /// the shard's counters.
  void RunPendingSession(SessionState* state);
  /// Cancels and unwinds a parked fiber (correction restart, closed
  /// session teardown): the parked wait-site throws, the stack unwinds to
  /// the fiber body's boundary, and the fiber is destroyed. Must be
  /// called with no checked lock held: the resume switches into the
  /// parked stack, and the unwind may run arbitrary destructor code.
  void UnwindFiber(SessionState* state);
  /// Executor task posted by Close for a session parked on the round it
  /// abandoned: unwinds the stack, then releases ownership and the
  /// runnable count Close took for it.
  void UnwindClosedSession(SessionState* state);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Where an assigning open starts looking for a free id.
  std::atomic<SessionId> next_id_{1};
  // Declared after the shards its lanes' runners touch, so it is joined
  // first (the destructor also joins it explicitly, before unwinding).
  std::unique_ptr<Executor> exec_;
};

}  // namespace qhorn

#endif  // QHORN_SESSION_ROUTER_H_
