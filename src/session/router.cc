#include "src/session/router.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>

#include "src/util/check.h"
#include "src/util/suspend.h"

namespace qhorn {

const char* ToString(ProvideOutcome o) {
  switch (o) {
    case ProvideOutcome::kResumed:
      return "resumed";
    case ProvideOutcome::kUnknownSession:
      return "unknown-session";
    case ProvideOutcome::kSessionClosed:
      return "session-closed";
    case ProvideOutcome::kNotAwaiting:
      return "not-awaiting";
    case ProvideOutcome::kStaleRound:
      return "stale-round";
    case ProvideOutcome::kAnswerCountMismatch:
      return "answer-count-mismatch";
    case ProvideOutcome::kLogWriteFailed:
      return "log-write-failed";
  }
  return "?";
}

SessionRouter::SessionRouter() : SessionRouter(Options()) {}

SessionRouter::SessionRouter(Options options)
    : options_(std::move(options)),
      // Options.threads counts session lanes across every shard;
      // threads == 1 stays the synchronous inline executor (the
      // differential baseline).
      exec_(std::make_unique<Executor>(options_.threads)) {
  QHORN_CHECK_MSG(options_.shards >= 1, "SessionRouter needs >= 1 shard");
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionRouter::~SessionRouter() {
  Drain();
  // Join the executor before any member is destroyed: Drain() returning
  // only proves the last runnable job *completed* — its runner task may
  // still be between the completion bookkeeping and its final job-log
  // check, touching session state and its shard's mutex and condvar.
  // ~Executor joins the workers, so after this line no runner code is in
  // flight.
  exec_.reset();
  // Unwind continuations still parked on rounds no user answered (a
  // session closed while parked was unwound at its close): the parked
  // stacks hold live learner frames whose destructors must run.
  // Safe on this thread — the workers are joined, so no runner owns any
  // session anymore. Collect under the locks (uncontended now, but they
  // keep the guarded-field discipline uniform), unwind outside them:
  // UnwindFiber switches into the parked stack, and the rank checker
  // forbids holding a lock across that.
  std::vector<SessionState*> parked;
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mutex);
    for (auto& [id, state] : shard->sessions) {
      if (state->fiber != nullptr) parked.push_back(state.get());
    }
  }
  for (SessionState* state : parked) UnwindFiber(state);
}

void SessionRouter::UnwindFiber(SessionState* state) {
  state->backend.RequestCancel();
  state->fiber->Resume();
  QHORN_CHECK_MSG(state->fiber->finished(),
                  "cancelled fiber parked again instead of unwinding");
  state->fiber.reset();
}

void SessionRouter::UnwindClosedSession(SessionState* state) {
  UnwindFiber(state);
  Shard& shard = *state->shard;
  bool idle = false;
  {
    MutexLock lock(&shard.mutex);
    state->running = false;
    idle = --shard.runnable_jobs == 0;
  }
  if (idle) shard.idle_cv.NotifyAll();
}

SessionRouter::SessionId SessionRouter::OpenPending(int n) {
  return OpenInternal(0, n);
}

SessionRouter::SessionId SessionRouter::OpenPendingAt(SessionId id, int n) {
  return id <= 0 ? 0 : OpenInternal(id, n);
}

SessionRouter::SessionId SessionRouter::OpenInternal(SessionId id, int n) {
  // Refused before taking an id, so a refusal consumes none.
  if (n < 1 || n > kMaxVars) return 0;
  auto state = std::make_unique<SessionState>();
  state->session =
      std::make_unique<QuerySession>(n, &state->backend, options_.session);
  const bool assign = id == 0;
  for (;;) {
    if (assign) id = next_id_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = ShardFor(id);
    MutexLock lock(&shard.mutex);
    if (!shard.sessions.contains(id)) {
      state->id = id;
      state->shard = &shard;
      shard.sessions.emplace(id, std::move(state));
      return id;
    }
    // A caller-chosen open holds this id: refuse it, or skip it.
    if (!assign) return 0;
  }
}

SessionRouter::SessionState* SessionRouter::Shard::Find(SessionId id) {
  auto it = sessions.find(id);
  QHORN_CHECK_MSG(it != sessions.end(), "no session " << id);
  return it->second.get();
}

void SessionRouter::Shard::CompleteJobs(SessionState* state,
                                        size_t jobs_run) {
  for (; state->jobs_completed < jobs_run; ++state->jobs_completed) {
    ++jobs_done;
    --runnable_jobs;
    switch (state->job_log[state->jobs_completed].kind) {
      case JobKind::kLearn:
        ++learns;
        break;
      case JobKind::kVerify:
        ++verifies;
        break;
      case JobKind::kRevise:
        ++revisions;
        break;
      case JobKind::kOther:
        break;
    }
  }
}

bool SessionRouter::Submit(SessionId id, Job job) {
  return SubmitInternal(id, std::move(job), JobKind::kOther);
}

bool SessionRouter::SubmitInternal(SessionId id, Job job, JobKind kind) {
  QHORN_CHECK(job != nullptr);
  Shard& shard = ShardFor(id);
  SessionState* state = nullptr;
  bool start_runner = false;
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return false;
    state = it->second.get();
    if (state->closed) return false;
    state->job_log.push_back(JobRecord{std::move(job), kind});
    // A session blocked on its user cannot progress: the job waits in the
    // log, uncounted, until ProvideAnswers makes it runnable.
    if (!state->awaiting) {
      ++shard.runnable_jobs;
      if (!state->running) {
        state->running = true;
        start_runner = true;
      }
    }
  }
  // Post outside the lock: at concurrency 1 the executor runs the task
  // inline, and the runner re-acquires the mutex.
  if (start_runner) exec_->Post([this, state] { RunPendingSession(state); });
  return true;
}

void SessionRouter::RunPendingSession(SessionState* state) {
  // The attempt loop. The job log runs inside a Fiber whose suspension
  // hook *parks* (switches back here), so a resume re-enters the exact
  // frame that asked the question — no rebuild, no replay, no re-walk. The
  // body only fetches jobs and runs them; every piece of completion
  // bookkeeping happens on this (host) side of the switch, after Resume()
  // returns, under the shard's mutex.
  Shard& shard = *state->shard;
  for (;;) {
    bool resume_parked = false;
    bool restart = false;
    size_t start_job = 0;
    {
      MutexLock lock(&shard.mutex);
      resume_parked = state->fiber != nullptr;
      restart = state->correction.has_value();
      if (!resume_parked && state->jobs_completed >= state->job_log.size()) {
        state->running = false;
        return;
      }
      start_job = state->jobs_completed;
    }
    if (resume_parked && restart) {
      // A correction abandoned this parked stack (it was built over the
      // flipped answer); unwind it — the cache's rollback leaves its log
      // at the answered prefix — and fall through to a fresh attempt that
      // replays the corrected prefix.
      UnwindFiber(state);
      continue;
    }
    if (resume_parked) {
      // O(1) resume: ProvideAnswers wrote the answered round's bits into
      // the parked frame under the lock taken above; switch back in.
      state->fiber->Resume();
    } else {
      // Fresh attempt: the uncompleted jobs run on the live session — or,
      // after a correction (which reset jobs_completed to 0), the whole
      // job log runs on the session restarted over its corrected prefix
      // (QuerySession::Restart): the only quadratic path left, paid once
      // per correction rather than once per round.
      if (restart) {
        state->session->Restart(*state->correction);
        state->correction.reset();
      }
      state->fiber_jobs_run = start_job;
      // The body outlives this call (it parks, and a later runner resumes
      // it), so it captures nothing from this frame by reference.
      auto fiber = std::make_unique<Fiber>([state, start_job] {
        try {
          for (size_t i = start_job;; ++i) {
            JobRecord job;
            {
              MutexLock lock(&state->shard->mutex);
              if (i >= state->job_log.size()) return;
              job = state->job_log[i];  // copy: the log outlives the run
            }
            job.fn(*state->session);
            // Runner-owned cursor, read by the host after the switch back
            // (same-thread, or ordered through the shard mutex on a lane
            // handoff).
            state->fiber_jobs_run = i + 1;
          }
        } catch (const JobSuspended&) {
          // Cancel unwind: the learner frames above are gone; the restart
          // attempt replays the corrected prefix from scratch.
        }
      });
      state->backend.InstallYieldHook(
          [f = fiber.get()] { f->Yield(); });
      state->fiber = std::move(fiber);
      state->fiber->Resume();
    }
    const size_t jobs_run = state->fiber_jobs_run;
    if (state->fiber->finished()) {
      // The body ran out of jobs (or a racing Submit will re-post). Fold
      // the completed jobs into the counters; release ownership in the
      // same critical section that lets Drain return.
      state->fiber.reset();
      state->backend.InstallYieldHook(nullptr);
      bool idle = false;
      bool done = false;
      {
        MutexLock lock(&shard.mutex);
        shard.CompleteJobs(state, jobs_run);
        if (state->jobs_completed >= state->job_log.size()) {
          state->running = false;
          done = true;
          idle = shard.runnable_jobs == 0;
        }
      }
      if (idle) shard.idle_cv.NotifyAll();
      if (done) return;
      continue;  // jobs arrived while the body was finishing
    }
    // Parked on a user round: publish it and free the lane. The parked
    // stack is the session's resume state. The announced round shares the
    // questions' storage with the frame and is built here, outside the
    // lock: this runner still owns the session and nothing else touches a
    // parked fiber.
    const std::span<const TupleSet> questions =
        state->backend.parked_questions();
    PendingRound round{state->id, 0, {questions.begin(), questions.end()}};
    bool idle = false;
    bool abandoned = false;
    {
      MutexLock lock(&shard.mutex);
      shard.CompleteJobs(state, jobs_run);
      ++state->suspensions;
      ++shard.suspensions;
      // Everything this session still owes can no longer progress
      // without the user; Drain must not wait for it.
      shard.runnable_jobs -= static_cast<int64_t>(state->job_log.size() -
                                                  state->jobs_completed);
      idle = shard.runnable_jobs == 0;
      if (state->closed) {
        // Closed mid-run: abandon the round; the session never resumes.
        abandoned = true;
      } else {
        state->awaiting = true;
        // Published in the same critical section as runnable_jobs's
        // decrement, so Drain-then-poll observes every parked round.
        round.round_id = state->answered_rounds;
        shard.AnnounceRound(state, std::move(round));
      }
      state->running = false;
    }
    if (idle) shard.idle_cv.NotifyAll();
    // A closed session's parked stack unwinds right here — no resume can
    // ever come. Safe after releasing ownership: closed sessions reject
    // Submit/ProvideAnswers, so no other runner can be posted.
    if (abandoned) UnwindFiber(state);
    return;  // ← the lane is free while the user thinks
  }
}

bool SessionRouter::SubmitLearn(SessionId id) {
  return SubmitInternal(
      id, [](QuerySession& session) { session.Learn(); }, JobKind::kLearn);
}

bool SessionRouter::SubmitVerify(SessionId id, Query candidate) {
  return SubmitInternal(
      id,
      [candidate = std::move(candidate)](QuerySession& session) {
        session.Verify(candidate);
      },
      JobKind::kVerify);
}

bool SessionRouter::SubmitRevise(SessionId id, Query candidate) {
  return SubmitInternal(
      id,
      [candidate = std::move(candidate)](QuerySession& session) {
        session.Revise(candidate);
      },
      JobKind::kRevise);
}

void SessionRouter::Shard::AnnounceRound(SessionState* state,
                                         PendingRound round) {
  state->announced_slot = announced_rounds.size();
  state->announced_batch = announce_batch;
  announced_rounds.push_back(std::move(round));
}

void SessionRouter::Shard::RetireRound(SessionState* state) {
  // A round some poll already took is the caller's to drop.
  if (state->announced_batch != announce_batch) return;
  state->announced_batch = 0;
  const size_t slot = state->announced_slot;
  if (slot + 1 != announced_rounds.size()) {
    announced_rounds[slot] = std::move(announced_rounds.back());
    Find(announced_rounds[slot].session_id)->announced_slot = slot;
  }
  announced_rounds.pop_back();
}

std::vector<PendingRound> SessionRouter::PendingRounds() {
  std::vector<PendingRound> rounds;
  for (auto& shard : shards_) {
    std::vector<PendingRound> batch;
    {
      MutexLock lock(&shard->mutex);
      batch.swap(shard->announced_rounds);
      ++shard->announce_batch;  // every slot into the taken vector is stale
    }
    if (rounds.empty()) {
      rounds.swap(batch);
    } else {
      rounds.insert(rounds.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    }
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const PendingRound& a, const PendingRound& b) {
              return a.session_id < b.session_id;
            });
  return rounds;
}

ProvideOutcome SessionRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  return ProvideAnswersInternal(id, round_id, answers, nullptr);
}

ProvideOutcome SessionRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers,
                                             CommitHook commit) {
  return ProvideAnswersInternal(id, round_id, answers, &commit);
}

ProvideOutcome SessionRouter::ProvideAnswersInternal(SessionId id,
                                                     int64_t round_id,
                                                     BitSpan answers,
                                                     CommitHook* commit) {
  Shard& shard = ShardFor(id);
  SessionState* state = nullptr;
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return ProvideOutcome::kUnknownSession;
    state = it->second.get();
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->awaiting) return ProvideOutcome::kNotAwaiting;
    if (round_id != state->answered_rounds) {
      return ProvideOutcome::kStaleRound;
    }
    if (answers.size() != state->backend.parked_questions().size()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Validations passed — the write-ahead barrier runs here, under the
    // lock, so the logged record and the fold it authorizes are one
    // atomic step as seen by every other router call. A veto leaves the
    // session exactly as it was (the round stays pending, the same call
    // can be retried once the log is healthy). The sharding invariant —
    // a DurableRouter commit hook runs under exactly one shard's mutex —
    // is what lets the hook append to the WAL file paired with this shard
    // without cross-shard ordering concerns; the rank checker enforces it
    // (a hook reaching into a second shard dies on the same-rank check).
    if (commit != nullptr) {
      LockRankChecker::AssertHeldCountAtRank(LockRank::kRouterShard, 1,
                                             "a DurableRouter commit hook");
      if (!(*commit)()) {
        return ProvideOutcome::kLogWriteFailed;
      }
    }
    // Accepted: write the bits into the parked frame and make the session
    // runnable again. The runner that resumes it takes this lock first,
    // which orders the bits before the frame reads them; the parked cache
    // logs them with its questions.
    state->backend.Answer(answers);
    ++state->answered_rounds;
    shard.RetireRound(state);
    state->awaiting = false;
    shard.runnable_jobs += static_cast<int64_t>(state->job_log.size() -
                                                state->jobs_completed);
    state->running = true;
  }
  exec_->Post([this, state] { RunPendingSession(state); });
  return ProvideOutcome::kResumed;
}

ProvideOutcome SessionRouter::CorrectAnswer(SessionId id, size_t entry_index) {
  Shard& shard = ShardFor(id);
  SessionState* state = nullptr;
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return ProvideOutcome::kUnknownSession;
    state = it->second.get();
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->awaiting) return ProvideOutcome::kNotAwaiting;
    // Parked, the session is nobody's to run: its answered prefix is
    // stable under the lock, as its parked round is.
    if (entry_index >= state->session->answered_questions()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Record the correction; the runner applies it (QuerySession::Restart)
    // once it owns the session and has unwound the parked stack, whose
    // cache still holds the in-flight round.
    state->correction = entry_index;
    // The parked stack and job cursor describe a run over the old
    // answers; restart the whole job log on a fresh fiber (a full-prefix
    // replay attempt). The abandoned round's id is retired —
    // answered_rounds advances past it — so the restarted session's next
    // round gets a fresh id and a stale ProvideAnswers against the
    // abandoned round reports kStaleRound, never folds old answers into
    // the new question stream.
    ++state->answered_rounds;
    state->jobs_completed = 0;
    // A parked continuation was built over the old answer; the pending
    // correction tells the runner to unwind it before the restart attempt
    // (the unwind runs learner destructors, so it happens on a lane, never
    // under this lock).
    shard.RetireRound(state);  // the abandoned round is never delivered
    state->awaiting = false;
    shard.runnable_jobs += static_cast<int64_t>(state->job_log.size());
    state->running = true;
    ++shard.corrections;
  }
  exec_->Post([this, state] { RunPendingSession(state); });
  return ProvideOutcome::kResumed;
}

std::optional<PendingRound> SessionRouter::pending_round(SessionId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mutex);
  auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) return std::nullopt;
  const SessionState* state = it->second.get();
  if (!state->awaiting) return std::nullopt;
  const std::span<const TupleSet> questions =
      state->backend.parked_questions();
  return PendingRound{id, state->answered_rounds,
                      {questions.begin(), questions.end()}};
}

bool SessionRouter::Close(SessionId id) {
  return Close(id, [] { return true; });
}

bool SessionRouter::Close(SessionId id, CommitHook commit) {
  Shard& shard = ShardFor(id);
  SessionState* parked = nullptr;
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) return false;
    SessionState* state = it->second.get();
    if (state->closed) return false;
    // The write-ahead barrier, as in ProvideAnswersInternal: only a close
    // the router accepts is logged, and it is logged before it happens.
    if (!commit()) return false;
    state->closed = true;
    if (state->awaiting) {
      // The user will never answer; abandon the round. The session's
      // uncompleted jobs were uncounted at suspension.
      shard.RetireRound(state);
      state->awaiting = false;
      if (state->fiber != nullptr) {
        // Its parked stack goes now, on a lane, not with the router: take
        // ownership as a runner would and count the unwind, so Drain
        // waits for it. Closed, the session never starts another attempt.
        state->running = true;
        ++shard.runnable_jobs;
        parked = state;
      }
    }
  }
  // Posted outside the lock: at one lane the unwind runs inline, and it
  // switches into the parked stack, which no held lock may cross.
  if (parked != nullptr) {
    exec_->Post([this, parked] { UnwindClosedSession(parked); });
  }
  return true;
}

std::optional<SessionStatus> SessionRouter::status(SessionId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mutex);
  auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) return std::nullopt;
  const SessionState* state = it->second.get();
  if (state->awaiting) return SessionStatus::kAwaitingUser;
  if (state->running) return SessionStatus::kRunning;
  return SessionStatus::kIdle;
}

int64_t SessionRouter::suspensions(SessionId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mutex);
  auto it = shard.sessions.find(id);
  return it == shard.sessions.end() ? -1 : it->second->suspensions;
}

void SessionRouter::Drain() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mutex);
    // Explicit predicate loop (not a wait(pred) lambda) so the guarded
    // read of runnable_jobs happens in a scope thread-safety analysis can
    // see holds the shard mutex.
    while (shard->runnable_jobs != 0) {
      shard->idle_cv.Wait(&shard->mutex);
    }
  }
}

QuerySession& SessionRouter::session(SessionId id) {
  Shard& shard = ShardFor(id);
  MutexLock lock(&shard.mutex);
  return *shard.Find(id)->session;
}

ServiceStats SessionRouter::stats() {
  ServiceStats stats;
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mutex);
    QHORN_CHECK_MSG(shard->runnable_jobs == 0,
                    "stats() requires an idle router");
    stats.sessions += static_cast<int64_t>(shard->sessions.size());
    stats.jobs += shard->jobs_done;
    stats.learns += shard->learns;
    stats.verifies += shard->verifies;
    stats.revisions += shard->revisions;
    stats.suspensions += shard->suspensions;
    stats.corrections += shard->corrections;
    for (const auto& [id, state] : shard->sessions) {
      const OracleStats& os = state->session->oracle_stats();
      stats.questions += os.questions;
      stats.batched_questions += os.batched_questions;
      stats.rounds += state->session->rounds();
      stats.cache_hits += state->session->cache_hits();
      stats.replayed_questions += state->session->replayed_questions();
      if (state->awaiting) {
        ++stats.awaiting_sessions;
        // Quiesced and awaiting: no runner can resume this fiber while
        // the shard lock is held.
        stats.snapshot_bytes +=
            static_cast<int64_t>(state->fiber->ResidentBytes());
      }
    }
  }
  return stats;
}

}  // namespace qhorn
