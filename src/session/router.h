// SessionRouter — the multi-session service layer over QuerySession.
//
// The paper's workflow is one interactive user per learner; the service
// target is heavy traffic from many concurrent users. The router owns the
// executor and multiplexes N live sessions across it:
//
//   * Each session keeps its own oracle pipeline (cache → counting →
//     PendingOracle), so per-user state never crosses threads. The
//     cache's ask-ordered log is the session's user-boundary transcript —
//     every question that reached the user, once, with its answer — and
//     the one place the router restarts a session from: the router keeps
//     no copy of answered questions, only their count.
//   * Jobs against one session run strictly in submission order, one at a
//     time (QuerySession is not thread-safe and the learning protocol is
//     inherently sequential per user); jobs of different sessions run in
//     parallel on the executor's workers.
//
// Every session is a pending session: a user answers with
// seconds-to-minutes latency, so a session blocked on one must not pin a
// lane. Each session runs over a PendingOracle backend: the first round
// that needs the user records a PendingRound and takes the job off its
// lane (parking its fiber, or unwinding it with
// JobSuspended, src/util/suspend.h) — the lane is released the moment
// control is back in the runner, so 256 sessions all blocked on users
// occupy zero threads. The embedding server polls PendingRounds() for the
// rounds announced since its last poll, collects the user's labels, and
// calls ProvideAnswers(id, round_id, answers); the router then resumes the
// session's jobs. How it resumes is the ResumeMode:
//
//   * kFiber (default): the job runs on a Fiber (src/util/fiber.h) and a
//     suspension *parks* instead of unwinding — the whole call stack stays
//     alive on its own mmap'd stack and the lane is released by a context
//     switch. A resume stages the answered round's bits and switches back
//     into the exact frame that asked: O(1) compute per resume, O(rounds)
//     per session, nothing re-run and nothing replayed. The memory traded
//     for that compute is the parked stack (reported as the session's
//     snapshot_bytes while it awaits). ProvideAnswers only stages the
//     bits; the parked cache writes them into its log when the frame
//     returns. A correction cannot resume a parked stack built over the
//     old answer, so the runner unwinds the stack (cancel + one last
//     resume), takes the session's log, truncates it at the corrected
//     entry, flips that answer and restarts through the full-prefix replay
//     attempt below.
//   * kReplay: the full-prefix protocol — rebuild fresh decorators,
//     replay *every* answered round at the user boundary and re-run the
//     job log from the start, O(prefix) per resume and O(rounds²) per
//     session. ProvideAnswers moves the answered round into the session
//     state; the runner takes the session's log and replays it plus that
//     round. Kept as the differential oracle: both modes are bit-identical
//     in every observable (the continuation, workload fuzz and durable
//     crash suites assert fingerprint equality across modes), and as the
//     resume path that needs no parked stack.
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
// An embedding server plugs a user in through OpenPending and the
// PendingRounds()/ProvideAnswers protocol above; a simulated user is just
// an answerer of that protocol in the caller's process (FleetDriver's
// hostile arm is one). Code that wants a synchronous user drives a bare
// QuerySession instead, which is also the service's differential
// reference.

#ifndef QHORN_SESSION_ROUTER_H_
#define QHORN_SESSION_ROUTER_H_

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
  /// Questions served by user-boundary replay stages across all resume
  /// attempts. Fiber resume replays nothing (answers feed the parked
  /// frame directly; only a correction restart replays); full-prefix
  /// replay resume re-serves the whole prefix per resume (quadratic). The
  /// resume-depth stress test gates on this split.
  int64_t replayed_questions = 0;
  /// Parked-stack bytes across sessions currently awaiting a user under
  /// fiber resume — the memory it trades for the replay compute: each
  /// stack's resident-able size after the cold-stack trim. Replay resume
  /// parks nothing and reports 0.
  int64_t snapshot_bytes = 0;
  int64_t corrections = 0;  ///< CorrectAnswer calls accepted
};

/// How a suspended pending session resumes after ProvideAnswers. See the
/// file comment.
enum class ResumeMode {
  kFiber,   ///< park the live call stack; O(1) switch back per resume
  kReplay,  ///< rebuild from scratch; replay the full answered prefix
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
  /// access to the session. A job may be run *multiple times* (under
  /// kReplay each resume re-runs the job sequence from the start; under
  /// either mode a CorrectAnswer restarts it from job 0), so raw Submit
  /// jobs must be idempotent in their external effects; the typed
  /// submits are.
  using Job = std::function<void(QuerySession&)>;

  struct Options {
    /// Concurrent session lanes (worker threads running session jobs);
    /// ≤ 0 means Executor::DefaultConcurrency() (which honours
    /// QHORN_THREADS). 1 degrades to synchronous in-caller execution —
    /// the differential baseline. Ignored when `executor` is set.
    int threads = 0;
    QuerySession::Options session;
    /// Resume protocol for pending sessions.
    ResumeMode resume_mode = ResumeMode::kFiber;
    /// Borrowed executor (how ShardedRouter shares one pool across its
    /// shards). Non-null: the router posts to it instead of owning a pool,
    /// `threads` is ignored, and the *owner* must keep the executor alive
    /// — and joined — past this router's destruction (drain every sharing
    /// router, destroy the executor, then the routers; see
    /// ShardedRouter::~ShardedRouter for the canonical order).
    Executor* executor = nullptr;
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
  /// Returns 0 (never a valid id) and opens nothing when `n` is outside
  /// [1, kMaxVars] — the typed refusal for a hostile open.
  SessionId OpenPending(int n);

  /// OpenPending under an id the caller picks — how ShardedRouter places
  /// a session on the shard its id names. Returns `id`, or 0 and opens
  /// nothing when `id` ≤ 0, `id` is already in use or `n` is out of range
  /// as above. The ids the router assigns itself skip every id in use, so
  /// the two kinds never collide.
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
  /// appends its round to a plain vector under the router mutex it already
  /// holds; the poll swaps that vector out in one short critical section,
  /// then sorts and returns it outside the lock — O(new rounds) per poll,
  /// whatever the number of parked sessions. Retiring a round that no poll
  /// has taken yet removes it from the vector in place (see RetireRound).
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
  /// corrupted by a stale or malformed reply). On kResumed the session
  /// resumes under the router's ResumeMode; answers are consumed by value,
  /// so the caller's storage is free immediately.
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
  /// user-boundary transcript, QuerySession::user_transcript(), in answer
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
  /// This supersedes the old blanket refusal of mid-suspension corrections
  /// (QuerySession::CorrectAndRelearn still refuses in continuation mode —
  /// it relearns synchronously inside the call, which a pending backend
  /// would immediately suspend out of). Works in both resume modes; the
  /// restart attempt is a full-prefix replay even under kFiber (the
  /// parked stack was built over the old answer and is unwound first).
  ProvideOutcome CorrectAnswer(SessionId id, size_t entry_index);

  /// The resume protocol this router runs.
  ResumeMode resume_mode() const { return options_.resume_mode; }

  /// The round the session is blocked on, if any — nullopt for unknown,
  /// closed, or not-awaiting sessions. A copy, so the recovery replay can
  /// match surfaced rounds against logged answers without racing the
  /// runner. The one way to re-read a round PendingRounds() already
  /// delivered.
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
  /// the router lock. A veto returns false with the session still open.
  bool Close(SessionId id, CommitHook commit);

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

  /// Aggregate counters. Requires no runnable job (call after Drain;
  /// sessions awaiting user answers are fine).
  ServiceStats stats();

  Executor* executor() { return exec_; }

 private:
  enum class JobKind { kOther, kLearn, kVerify, kRevise };
  struct JobRecord {
    Job fn;
    JobKind kind = JobKind::kOther;
  };

  // Locking protocol: the map shape, job log, counters, the
  // awaiting/running/closed flags and the announcement slot are guarded by
  // the router's mutex_.
  // The resume-state fields (staged_*, correction, fiber*)
  // follow an ownership handoff instead: while `running` is true
  // they belong exclusively to the runner task and are read/written
  // without the lock — a protocol thread-safety analysis cannot express
  // (TSA has no "guarded by mutex_ OR owned by the runner"), and a
  // nested struct cannot name the enclosing router's mutex_ in a
  // QHORN_GUARDED_BY anyway. The per-field comments say which regime
  // each field is under; the cross-thread edges are TSan-covered by the
  // continuation stress suites.
  struct SessionState {
    // Declared before the session, whose pipeline points at it.
    PendingOracle backend;
    std::unique_ptr<QuerySession> session;
    // The full job log (resumes re-run it from the start) plus the
    // completed count.
    std::vector<JobRecord> job_log;
    size_t jobs_completed = 0;
    // The answered user-boundary questions live once, in the session's
    // cache log (QuerySession::user_transcript); the router keeps their
    // count, for CorrectAnswer's range check, and the count of answered
    // rounds, the next round's id.
    size_t answered_questions = 0;
    int64_t answered_rounds = 0;
    std::optional<PendingRound> pending_round;  // set while awaiting
    // The answered round, from ProvideAnswers to the resuming runner: its
    // bits (both modes) and, under kReplay, its questions, which the
    // runner appends to the replayed log. (Under kFiber the parked cache
    // still holds the questions; it logs them with the bits on resume.)
    std::vector<bool> staged_answers;
    std::vector<TupleSet> staged_questions;
    // Set by CorrectAnswer: the runner restarts from the log truncated
    // after this entry, with the entry's answer flipped.
    std::optional<size_t> correction;
    // Fiber-resume state (kFiber). `pipeline_live` records that the last
    // attempt exited by *completing* the job log, so the session's live
    // pipeline is current and jobs submitted later run directly on it —
    // no rebuild, no replay. `snapshot_bytes` is the parked stack's
    // resident-able size while awaiting (ServiceStats.snapshot_bytes).
    // `fiber` is the parked continuation — the suspended job's live call
    // stack; a pending `correction` makes the runner unwind it (cancel +
    // one last resume) before the restart attempt. `fiber_jobs_run` is the
    // body's progress cursor — jobs fully run this attempt — read by the
    // host after each switch back, so all completion bookkeeping stays on
    // the host side of the switch.
    bool pipeline_live = false;
    size_t snapshot_bytes = 0;
    std::unique_ptr<Fiber> fiber;
    size_t fiber_jobs_run = 0;
    int64_t suspensions = 0;
    bool awaiting = false;  // suspended; ProvideAnswers will resume
    bool running = false;   // a runner task currently owns this session
    bool closed = false;
    // Where this session's undelivered round sits in announced_rounds_.
    // Valid only while announced_batch equals the router's announce_batch_:
    // a poll bumps that counter as it takes the vector, which invalidates
    // every slot at once.
    size_t announced_slot = 0;
    uint64_t announced_batch = 0;
  };

  /// Opens under `id`, or under the next free id when `id` is 0.
  SessionId OpenInternal(SessionId id, int n);
  bool SubmitInternal(SessionId id, Job job, JobKind kind);
  /// Shared body of both ProvideAnswers overloads; `commit` null means
  /// commit unconditionally (FunctionRef itself is non-nullable).
  ProvideOutcome ProvideAnswersInternal(SessionId id, int64_t round_id,
                                        BitSpan answers, CommitHook* commit);
  /// Executor task: the kReplay attempt loop for a session —
  /// rebuild the pipeline with the answered prefix replayed, re-run the
  /// job log from job 0, and either finish (log complete) or catch the
  /// suspension, publish the pending round and release the lane.
  /// Dispatches to the fiber runner under ResumeMode::kFiber.
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
  /// Executor task posted by Close for a session parked on the round it
  /// abandoned: unwinds the stack, then releases ownership and the
  /// runnable count Close took for it.
  void UnwindClosedSession(SessionState* state);
  /// The restart prefix of a fresh attempt: the session's user
  /// transcript, moved out, with what came since the last attempt applied
  /// — a pending correction, or kReplay's answered round.
  std::vector<TranscriptEntry> TakeRestartPrefix(SessionState* state);
  /// Bumps jobs_done_ and the per-kind counter.
  void CompleteJob(JobKind kind) QHORN_REQUIRES(mutex_);
  /// Publishes the session's freshly set pending_round to the next poll.
  void AnnounceRound(SessionState* state) QHORN_REQUIRES(mutex_);
  /// The session's round stops being answerable: if no poll has taken it
  /// yet, remove it from announced_rounds_ (the last entry moves into its
  /// slot), so it is never delivered.
  void RetireRound(SessionState* state) QHORN_REQUIRES(mutex_);
  SessionState* FindSession(SessionId id) QHORN_REQUIRES(mutex_);

  Options options_;
  std::unique_ptr<Executor> owned_executor_;  // null when Options.executor set
  Executor* exec_ = nullptr;                  // owned or borrowed, never null

  // Guards the sessions_ map shape, the per-session bookkeeping
  // (SessionState fields — see the struct comments for the runner-owned
  // exceptions), the announced rounds and the service counters. A
  // ShardedRouter has one router, hence one of these, per shard; a
  // DurableRouter commit hook (ProvideAnswers or Close) runs while
  // exactly one of them is held (LockRank::kRouterShard — the rank
  // checker forbids nesting two, and ProvideAnswersInternal asserts it
  // before running its hook).
  Mutex mutex_{"router-shard", LockRank::kRouterShard};
  CondVar idle_cv_;
  // Rounds announced since the last poll, at most one per session, in no
  // particular order. PendingRounds swaps the vector out and bumps
  // announce_batch_, which starts at 1 so a fresh session's batch (0)
  // never matches.
  std::vector<PendingRound> announced_rounds_ QHORN_GUARDED_BY(mutex_);
  uint64_t announce_batch_ QHORN_GUARDED_BY(mutex_) = 1;
  std::unordered_map<SessionId, std::unique_ptr<SessionState>> sessions_
      QHORN_GUARDED_BY(mutex_);
  // Where an assigning open starts looking for a free id.
  SessionId next_id_ QHORN_GUARDED_BY(mutex_) = 1;
  // Jobs that can make progress right now: uncompleted jobs of sessions
  // that are not blocked on a user. A suspension subtracts its session's
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
