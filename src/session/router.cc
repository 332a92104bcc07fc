#include "src/session/router.h"

#include <algorithm>
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

SessionRouter::SessionRouter(Options options) : options_(std::move(options)) {
  // Options.threads counts session lanes; threads == 1 stays the
  // synchronous inline executor (the differential baseline).
  if (options_.executor != nullptr) {
    exec_ = options_.executor;
  } else {
    owned_executor_ = std::make_unique<Executor>(options_.threads);
    exec_ = owned_executor_.get();
  }
}

SessionRouter::~SessionRouter() {
  Drain();
  // Join the executor before any member is destroyed: Drain() returning
  // only proves the last runnable job *completed* — its runner task may
  // still be between the completion bookkeeping and its final job-log
  // check, touching session state, mutex_ and idle_cv_. ~Executor joins
  // the workers, so after this line no runner code is in flight. With a
  // *borrowed* executor this reset is a no-op and the owner is responsible
  // for the same guarantee: it must have destroyed (joined) the shared
  // pool before destroying this router (ShardedRouter's teardown order).
  owned_executor_.reset();
  // Unwind continuations still parked on rounds no user answered (a
  // session closed while parked was unwound at its close): the parked
  // stacks hold live learner frames whose destructors must run.
  // Safe on this thread — the workers are joined, so no runner owns any
  // session anymore. Collect under the lock (the locks are uncontended
  // now, but they keep the guarded-field discipline uniform), unwind
  // outside it: UnwindFiber switches into the parked stack, and the rank
  // checker forbids holding a lock across that.
  std::vector<SessionState*> parked;
  {
    MutexLock lock(&mutex_);
    for (auto& [id, state] : sessions_) {
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
  bool idle = false;
  {
    MutexLock lock(&mutex_);
    state->running = false;
    idle = --runnable_jobs_ == 0;
  }
  if (idle) idle_cv_.NotifyAll();
}

std::vector<TranscriptEntry> SessionRouter::TakeRestartPrefix(
    SessionState* state) {
  std::vector<TranscriptEntry> prefix = state->session->TakeUserTranscript();
  if (state->correction.has_value()) {
    // Flip the corrected answer and drop everything after it: the later
    // entries answered a question stream computed from the bad answer.
    // The surviving prefix re-aligns on the restart (questions up to the
    // flipped entry depend only on the unchanged answers before it), so
    // the user re-answers nothing they already answered correctly.
    const size_t index = *state->correction;
    state->correction.reset();
    QHORN_CHECK_MSG(index < prefix.size(),
                    "correction " << index << " past the user transcript");
    prefix.resize(index + 1);
    prefix[index].response = !prefix[index].response;
  }
  return prefix;
}

SessionRouter::SessionId SessionRouter::OpenPending(int n) {
  return OpenInternal(0, n);
}

SessionRouter::SessionId SessionRouter::OpenPendingAt(SessionId id, int n) {
  return id <= 0 ? 0 : OpenInternal(id, n);
}

SessionRouter::SessionId SessionRouter::OpenInternal(SessionId id, int n) {
  if (n < 1 || n > kMaxVars) return 0;
  auto state = std::make_unique<SessionState>();
  state->session =
      std::make_unique<QuerySession>(n, &state->backend, options_.session);
  MutexLock lock(&mutex_);
  if (id == 0) {
    while (sessions_.contains(next_id_)) ++next_id_;
    id = next_id_++;
  } else if (sessions_.contains(id)) {
    return 0;
  }
  state->backend.set_session_id(id);
  sessions_.emplace(id, std::move(state));
  return id;
}

SessionRouter::SessionState* SessionRouter::FindSession(SessionId id) {
  auto it = sessions_.find(id);
  QHORN_CHECK_MSG(it != sessions_.end(), "no session " << id);
  return it->second.get();
}

void SessionRouter::CompleteJob(JobKind kind) {
  ++jobs_done_;
  switch (kind) {
    case JobKind::kLearn:
      ++learns_;
      break;
    case JobKind::kVerify:
      ++verifies_;
      break;
    case JobKind::kRevise:
      ++revisions_;
      break;
    case JobKind::kOther:
      break;
  }
}

bool SessionRouter::Submit(SessionId id, Job job) {
  return SubmitInternal(id, std::move(job), JobKind::kOther);
}

bool SessionRouter::SubmitInternal(SessionId id, Job job, JobKind kind) {
  QHORN_CHECK(job != nullptr);
  SessionState* state = nullptr;
  bool start_runner = false;
  {
    MutexLock lock(&mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    state = it->second.get();
    if (state->closed) return false;
    state->job_log.push_back(JobRecord{std::move(job), kind});
    // A session blocked on its user cannot progress: the job waits in the
    // log, uncounted, until ProvideAnswers makes it runnable.
    if (!state->awaiting) {
      ++runnable_jobs_;
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
  // returns, under mutex_.
  for (;;) {
    bool resume_parked = false;
    bool cancel_parked = false;
    bool live = false;
    int64_t next_round = 0;
    size_t start_job = 0;
    {
      MutexLock lock(&mutex_);
      resume_parked = state->fiber != nullptr;
      cancel_parked = resume_parked && state->correction.has_value();
      if (!resume_parked && state->jobs_completed >= state->job_log.size()) {
        state->running = false;
        return;
      }
      live = state->pipeline_live;
      if (live) start_job = state->jobs_completed;
      next_round = state->answered_rounds;
    }
    if (cancel_parked) {
      // A correction abandoned this parked stack (it was built over the
      // flipped answer); unwind it — the cache's rollback leaves its log
      // at the answered prefix — and fall through to a fresh attempt that
      // replays the corrected prefix.
      UnwindFiber(state);
      continue;
    }
    if (resume_parked) {
      // O(1) resume: hand the answered round's bits to the parked
      // wait-site and switch back in. staged_answers was written by
      // ProvideAnswers under the lock taken above.
      state->backend.StageResumeAnswers(
          std::exchange(state->staged_answers, {}));
      state->fiber->Resume();
    } else {
      // Fresh attempt: over the live pipeline when the previous attempt
      // completed the job log (new jobs run directly), otherwise from a
      // rebuilt pipeline with the full answered prefix replayed (first
      // run, or a correction restart — the only quadratic path left, paid
      // once per correction rather than once per round).
      if (!live) {
        state->session->ResetWithUserReplay(TakeRestartPrefix(state));
        start_job = 0;
      }
      state->backend.BeginAttempt(next_round);
      state->fiber_jobs_run = start_job;
      auto fiber = std::make_unique<Fiber>([this, state, start_job] {
        try {
          for (size_t i = start_job;; ++i) {
            JobRecord job;
            {
              MutexLock lock(&mutex_);
              if (i >= state->job_log.size()) return;
              job = state->job_log[i];  // copy: the log outlives the run
            }
            job.fn(*state->session);
            // Runner-owned cursor, read by the host after the switch back
            // (same-thread, or ordered through mutex_ on a lane handoff).
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
        MutexLock lock(&mutex_);
        while (state->jobs_completed < jobs_run) {
          CompleteJob(state->job_log[state->jobs_completed].kind);
          ++state->jobs_completed;
          --runnable_jobs_;
        }
        // The pipeline now reflects every completed job; later jobs run
        // on it directly.
        state->pipeline_live = true;
        if (state->jobs_completed >= state->job_log.size()) {
          state->running = false;
          done = true;
          idle = runnable_jobs_ == 0;
        }
      }
      if (idle) idle_cv_.NotifyAll();
      if (done) return;
      continue;  // jobs arrived while the body was finishing
    }
    // Parked on a user round: publish it and free the lane. The parked
    // stack is the session's resume state; trim the cold region below the
    // parked frame back to the kernel (madvise) and report what actually
    // stays resident-able while the user thinks. Safe before the lock:
    // this runner still owns the session and nothing else touches a
    // parked fiber.
    const size_t resident = state->fiber->TrimColdStack();
    bool idle = false;
    bool abandoned = false;
    {
      MutexLock lock(&mutex_);
      while (state->jobs_completed < jobs_run) {
        CompleteJob(state->job_log[state->jobs_completed].kind);
        ++state->jobs_completed;
        --runnable_jobs_;
      }
      ++state->suspensions;
      ++suspensions_;
      // Everything this session still owes can no longer progress
      // without the user; Drain must not wait for it.
      runnable_jobs_ -= static_cast<int64_t>(state->job_log.size() -
                                             state->jobs_completed);
      idle = runnable_jobs_ == 0;
      if (state->closed) {
        // Closed mid-run: abandon the round; the session never resumes.
        (void)state->backend.TakePending();
        abandoned = true;
      } else {
        state->pending_round = state->backend.TakePending();
        state->awaiting = true;
        state->snapshot_bytes = resident;
        // Published in the same critical section as runnable_jobs_'s
        // decrement, so Drain-then-poll observes every parked round.
        AnnounceRound(state);
      }
      state->pipeline_live = false;
      state->running = false;
    }
    if (idle) idle_cv_.NotifyAll();
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

void SessionRouter::AnnounceRound(SessionState* state) {
  state->announced_slot = announced_rounds_.size();
  state->announced_batch = announce_batch_;
  announced_rounds_.push_back(*state->pending_round);
}

void SessionRouter::RetireRound(SessionState* state) {
  // A round some poll already took is the caller's to drop.
  if (state->announced_batch != announce_batch_) return;
  state->announced_batch = 0;
  const size_t slot = state->announced_slot;
  if (slot + 1 != announced_rounds_.size()) {
    announced_rounds_[slot] = std::move(announced_rounds_.back());
    FindSession(announced_rounds_[slot].session_id)->announced_slot = slot;
  }
  announced_rounds_.pop_back();
}

std::vector<PendingRound> SessionRouter::PendingRounds() {
  std::vector<PendingRound> rounds;
  {
    MutexLock lock(&mutex_);
    rounds.swap(announced_rounds_);
    ++announce_batch_;  // every slot into the taken vector is now stale
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
  SessionState* state = nullptr;
  std::optional<PendingRound> answered;  // freed after the lock is dropped
  {
    MutexLock lock(&mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return ProvideOutcome::kUnknownSession;
    state = it->second.get();
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->awaiting) return ProvideOutcome::kNotAwaiting;
    PendingRound& round = *state->pending_round;
    if (round_id != round.round_id) return ProvideOutcome::kStaleRound;
    if (answers.size() != round.questions.size()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Validations passed — the write-ahead barrier runs here, under the
    // lock, so the logged record and the fold it authorizes are one
    // atomic step as seen by every other router call. A veto leaves the
    // session exactly as it was (the round stays pending, the same call
    // can be retried once the log is healthy). The sharding invariant —
    // a DurableRouter commit hook runs under exactly one shard's mutex —
    // is what lets the hook append to this shard's WAL without
    // cross-shard ordering concerns; the rank checker enforces it (a hook
    // reaching into a second shard dies on the same-rank check).
    if (commit != nullptr) {
      LockRankChecker::AssertHeldCountAtRank(LockRank::kRouterShard, 1,
                                             "a DurableRouter commit hook");
      if (!(*commit)()) {
        return ProvideOutcome::kLogWriteFailed;
      }
    }
    // Accepted: stage the answered round for the runner and make the
    // session runnable again. The runner hands the bits to the parked
    // wait-site, and the parked cache logs them with its questions.
    state->staged_answers.assign(answers.size(), false);
    for (size_t i = 0; i < answers.size(); ++i) {
      state->staged_answers[i] = answers.Get(i);
    }
    state->answered_questions += answers.size();
    ++state->answered_rounds;
    RetireRound(state);
    answered = std::move(state->pending_round);
    state->pending_round.reset();
    state->awaiting = false;
    runnable_jobs_ += static_cast<int64_t>(state->job_log.size() -
                                           state->jobs_completed);
    state->running = true;
  }
  exec_->Post([this, state] { RunPendingSession(state); });
  return ProvideOutcome::kResumed;
}

ProvideOutcome SessionRouter::CorrectAnswer(SessionId id, size_t entry_index) {
  SessionState* state = nullptr;
  {
    MutexLock lock(&mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return ProvideOutcome::kUnknownSession;
    state = it->second.get();
    if (state->closed) return ProvideOutcome::kSessionClosed;
    if (!state->awaiting) return ProvideOutcome::kNotAwaiting;
    if (entry_index >= state->answered_questions) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Record the correction; the runner applies it to the session's log
    // (TakeRestartPrefix) once it owns the session and has unwound the
    // parked stack, whose cache still holds the in-flight round.
    state->correction = entry_index;
    state->answered_questions = entry_index + 1;
    // The parked stack and job cursor describe a run over the old
    // answers; restart the whole job log on a fresh fiber (a full-prefix
    // replay attempt). The abandoned round's id is retired —
    // answered_rounds advances past it — so the restarted session's next
    // round gets a fresh id and a stale ProvideAnswers against the
    // abandoned round reports kStaleRound, never folds old answers into
    // the new question stream.
    ++state->answered_rounds;
    state->pipeline_live = false;
    state->jobs_completed = 0;
    // A parked continuation was built over the old answer; the pending
    // correction tells the runner to unwind it before the restart attempt
    // (the unwind runs learner destructors, so it happens on a lane, never
    // under this lock).
    RetireRound(state);  // the abandoned round is never delivered
    state->pending_round.reset();
    state->awaiting = false;
    runnable_jobs_ += static_cast<int64_t>(state->job_log.size());
    state->running = true;
    ++corrections_;
  }
  exec_->Post([this, state] { RunPendingSession(state); });
  return ProvideOutcome::kResumed;
}

std::optional<PendingRound> SessionRouter::pending_round(SessionId id) {
  MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  const SessionState* state = it->second.get();
  if (!state->awaiting) return std::nullopt;
  return state->pending_round;
}

bool SessionRouter::Close(SessionId id) {
  return Close(id, [] { return true; });
}

bool SessionRouter::Close(SessionId id, CommitHook commit) {
  SessionState* parked = nullptr;
  {
    MutexLock lock(&mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    SessionState* state = it->second.get();
    if (state->closed) return false;
    // The write-ahead barrier, as in ProvideAnswersInternal: only a close
    // the router accepts is logged, and it is logged before it happens.
    if (!commit()) return false;
    state->closed = true;
    if (state->awaiting) {
      // The user will never answer; abandon the round. The session's
      // uncompleted jobs were uncounted at suspension.
      RetireRound(state);
      state->pending_round.reset();
      state->awaiting = false;
      if (state->fiber != nullptr) {
        // Its parked stack goes now, on a lane, not with the router: take
        // ownership as a runner would and count the unwind, so Drain
        // waits for it. Closed, the session never starts another attempt.
        state->running = true;
        ++runnable_jobs_;
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
  MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  const SessionState* state = it->second.get();
  if (state->awaiting) return SessionStatus::kAwaitingUser;
  if (state->running) return SessionStatus::kRunning;
  return SessionStatus::kIdle;
}

int64_t SessionRouter::suspensions(SessionId id) {
  MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? -1 : it->second->suspensions;
}

void SessionRouter::Drain() {
  MutexLock lock(&mutex_);
  // Explicit predicate loop (not a wait(pred) lambda) so the guarded read
  // of runnable_jobs_ happens in a scope thread-safety analysis can see
  // holds mutex_.
  while (runnable_jobs_ != 0) {
    idle_cv_.Wait(&mutex_);
  }
}

QuerySession& SessionRouter::session(SessionId id) {
  MutexLock lock(&mutex_);
  return *FindSession(id)->session;
}

ServiceStats SessionRouter::stats() {
  MutexLock lock(&mutex_);
  QHORN_CHECK_MSG(runnable_jobs_ == 0, "stats() requires an idle router");
  ServiceStats stats;
  stats.sessions = static_cast<int64_t>(sessions_.size());
  stats.jobs = jobs_done_;
  stats.learns = learns_;
  stats.verifies = verifies_;
  stats.revisions = revisions_;
  stats.suspensions = suspensions_;
  stats.corrections = corrections_;
  for (const auto& [id, state] : sessions_) {
    const OracleStats& os = state->session->oracle_stats();
    stats.questions += os.questions;
    stats.batched_questions += os.batched_questions;
    stats.rounds += state->session->rounds();
    stats.cache_hits += state->session->cache_hits();
    stats.replayed_questions += state->session->user_questions_replayed();
    if (state->awaiting) {
      ++stats.awaiting_sessions;
      stats.snapshot_bytes += static_cast<int64_t>(state->snapshot_bytes);
    }
  }
  return stats;
}

}  // namespace qhorn
