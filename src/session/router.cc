#include "src/session/router.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"
#include "src/util/suspend.h"

namespace qhorn {

std::shared_ptr<const CompiledQuery> CompiledQueryCache::Get(
    const Query& query, const EvalOptions& opts) {
  // The key captures exactly what evaluation under `opts` depends on
  // (CanonicalizeForEvaluation shares the R1/R2/R3 pipeline with
  // Canonicalize, so the cache can never drift from Equivalent()).
  Key key;
  key.require_guarantees = opts.require_guarantees;
  key.form = CanonicalizeForEvaluation(query, opts);
  key.form.Hash();  // fill the cached hash before sharing the key

  Stripe& stripe = StripeFor(KeyHash{}(key));
  {
    ReaderLock lock(&stripe.mutex);
    auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      stripe.hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  // Compile outside any lock so concurrent opens compile distinct queries
  // in parallel and cache hits never stall behind a compile. Two threads
  // racing on the same new key both compile (both counted as misses); the
  // first insert wins and the loser's copy is dropped — compiles are
  // idempotent µs-scale work, not worth a per-key latch.
  auto compiled = std::make_shared<const CompiledQuery>(query, opts);
  WriterLock lock(&stripe.mutex);
  auto [it, inserted] =
      stripe.map.try_emplace(std::move(key), std::move(compiled));
  return it->second;
}

int64_t CompiledQueryCache::hits() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.hits.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t CompiledQueryCache::misses() const {
  int64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.misses.load(std::memory_order_relaxed);
  }
  return total;
}

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

const char* ToString(ResumeMode m) {
  switch (m) {
    case ResumeMode::kFiber:
      return "fiber";
    case ResumeMode::kReplay:
      return "replay";
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
  if (options_.compiled_cache != nullptr) {
    cache_ = options_.compiled_cache;
  } else {
    owned_cache_ = std::make_unique<CompiledQueryCache>();
    cache_ = owned_cache_.get();
  }
}

SessionRouter::~SessionRouter() {
  Drain();
  // Join the executor before any member is destroyed: Drain() returning
  // only proves the last runnable job *completed* — its runner task may
  // still be between the completion bookkeeping and its final empty-queue
  // check, touching session state, mutex_ and idle_cv_. ~Executor joins
  // the workers, so after this line no runner code is in flight. With a
  // *borrowed* executor this reset is a no-op and the owner is responsible
  // for the same guarantee: it must have destroyed (joined) the shared
  // pool before destroying this router (ShardedRouter's teardown order).
  owned_executor_.reset();
  // Unwind continuations still parked on abandoned rounds (sessions
  // awaiting a user who never answered, or closed while parked): the
  // parked stacks hold live learner frames whose destructors must run.
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
  state->pending_backend->RequestCancel();
  state->fiber->Resume();
  QHORN_CHECK_MSG(state->fiber->finished(),
                  "cancelled fiber parked again instead of unwinding");
  state->fiber.reset();
  state->fiber_cancel = false;
}

SessionRouter::SessionId SessionRouter::OpenInternal(
    SessionId id, int n, MembershipOracle* user,
    std::unique_ptr<MembershipOracle> owned_backend,
    PendingOracle* pending_backend) {
  auto state = std::make_unique<SessionState>();
  state->session = std::make_unique<QuerySession>(n, user, options_.session);
  state->owned_backend = std::move(owned_backend);
  state->pending_backend = pending_backend;
  MutexLock lock(&mutex_);
  if (id == 0) {
    while (sessions_.contains(next_id_)) ++next_id_;
    id = next_id_++;
  } else if (sessions_.contains(id)) {
    return 0;
  }
  sessions_.emplace(id, std::move(state));
  return id;
}

SessionRouter::SessionId SessionRouter::Open(int n, MembershipOracle* user) {
  QHORN_CHECK(user != nullptr);
  return OpenInternal(0, n, user, nullptr, nullptr);
}

SessionRouter::SessionId SessionRouter::OpenAt(SessionId id, int n,
                                               MembershipOracle* user) {
  QHORN_CHECK(user != nullptr);
  if (id <= 0) return 0;
  return OpenInternal(id, n, user, nullptr, nullptr);
}

SessionRouter::SessionId SessionRouter::OpenSimulated(const Query& intended,
                                                      EvalOptions opts) {
  auto backend = std::make_unique<AsyncOracle>(cache_->Get(intended, opts));
  MembershipOracle* user = backend.get();
  return OpenInternal(0, intended.n(), user, std::move(backend), nullptr);
}

SessionRouter::SessionId SessionRouter::OpenSimulatedAt(
    SessionId id, const Query& intended, EvalOptions opts) {
  if (id <= 0) return 0;
  auto backend = std::make_unique<AsyncOracle>(cache_->Get(intended, opts));
  MembershipOracle* user = backend.get();
  return OpenInternal(id, intended.n(), user, std::move(backend), nullptr);
}

SessionRouter::SessionId SessionRouter::OpenPending(int n) {
  return OpenPendingInternal(0, n);
}

SessionRouter::SessionId SessionRouter::OpenPendingAt(SessionId id, int n) {
  return id <= 0 ? 0 : OpenPendingInternal(id, n);
}

SessionRouter::SessionId SessionRouter::OpenPendingInternal(SessionId id,
                                                            int n) {
  if (n < 1 || n > kMaxVars) return 0;
  auto backend = std::make_unique<PendingOracle>();
  PendingOracle* pending = backend.get();
  id = OpenInternal(id, n, pending, std::move(backend), pending);
  // Safe after the fact: the caller cannot Submit before OpenPending
  // returns, so no round can suspend carrying the unset id.
  if (id != 0) pending->set_session_id(id);
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
  bool pending = false;
  {
    MutexLock lock(&mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    state = it->second.get();
    if (state->closed) return false;
    pending = state->pending_backend != nullptr;
    if (pending) {
      state->job_log.push_back(JobRecord{std::move(job), kind});
      // A session blocked on its user cannot progress: the job waits in
      // the log, uncounted, until ProvideAnswers makes it runnable.
      if (!state->awaiting) {
        ++runnable_jobs_;
        if (!state->running) {
          state->running = true;
          start_runner = true;
        }
      }
    } else {
      state->queue.push_back(JobRecord{std::move(job), kind});
      ++runnable_jobs_;
      if (!state->running) {
        state->running = true;
        start_runner = true;
      }
    }
  }
  // Post outside the lock: at concurrency 1 the executor runs the task
  // inline, and the runner re-acquires the mutex.
  if (start_runner) {
    if (pending) {
      exec_->Post([this, state] { RunPendingSession(state); });
    } else {
      exec_->Post([this, state] { RunSession(state); });
    }
  }
  return true;
}

void SessionRouter::RunSession(SessionState* state) {
  // The runner owns the session until its queue drains; other sessions'
  // runners proceed in parallel on other lanes.
  for (;;) {
    JobRecord job;
    {
      MutexLock lock(&mutex_);
      if (state->queue.empty()) {
        state->running = false;
        return;
      }
      job = std::move(state->queue.front());
      state->queue.pop_front();
    }
    job.fn(*state->session);
    bool idle = false;
    bool finished = false;
    {
      MutexLock lock(&mutex_);
      CompleteJob(job.kind);
      // Release ownership in the same critical section that lets Drain
      // return: a drained router must already report every session idle.
      if (state->queue.empty()) {
        state->running = false;
        finished = true;
      }
      idle = --runnable_jobs_ == 0;
    }
    if (idle) idle_cv_.NotifyAll();
    if (finished) return;
  }
}

void SessionRouter::RunPendingSession(SessionState* state) {
  if (options_.resume_mode == ResumeMode::kFiber) {
    RunPendingSessionFiber(state);
    return;
  }
  // The kReplay attempt loop. One iteration = one *attempt*: rebuild the
  // pipeline with every answered round replayed at the user boundary and
  // re-run the job log from job 0. Fresh decorators re-record everything,
  // so the attempt that finally completes a job leaves observables
  // bit-identical to a synchronous run. O(prefix) per attempt — the
  // quadratic path, kept as the differential oracle. The attempt ends by
  // completing the log or suspending on the first unanswered round.
  for (;;) {
    int64_t next_round = 0;
    {
      MutexLock lock(&mutex_);
      if (state->jobs_completed >= state->job_log.size()) {
        state->running = false;
        return;
      }
      next_round = state->answered_rounds;
    }
    // Copying the answered transcript can be O(session lifetime); do it
    // outside the router-wide mutex. Safe unlocked: answered_entries only
    // mutates in ProvideAnswers/CorrectAnswer, which require awaiting ==
    // true, and this runner owns the session (awaiting stays false) until
    // it suspends — the lock above orders this read after the resume's
    // writes.
    std::vector<TranscriptEntry> prefix = state->answered_entries;
    state->session->ResetWithUserReplay(std::move(prefix));
    state->pending_backend->BeginAttempt(next_round);
    bool suspended = false;
    try {
      for (size_t i = 0;; ++i) {
        JobRecord job;
        {
          MutexLock lock(&mutex_);
          if (i >= state->job_log.size()) break;
          job = state->job_log[i];  // copy: re-runs reuse the log
        }
        job.fn(*state->session);
        bool idle = false;
        bool finished = false;
        {
          MutexLock lock(&mutex_);
          // Jobs below jobs_completed are replays of already-counted
          // completions; only the frontier job completes for the first
          // time here.
          if (i == state->jobs_completed) {
            ++state->jobs_completed;
            CompleteJob(job.kind);
            // Release ownership in the same critical section that lets
            // Drain return, so a drained router reports the session idle.
            if (state->jobs_completed >= state->job_log.size()) {
              state->running = false;
              finished = true;
            }
            idle = --runnable_jobs_ == 0;
          }
        }
        if (idle) idle_cv_.NotifyAll();
        if (finished) return;
      }
    } catch (const JobSuspended&) {
      suspended = true;
    }
    if (suspended) {
      bool idle = false;
      {
        MutexLock lock(&mutex_);
        ++state->suspensions;
        ++suspensions_;
        // Everything this session still owes can no longer progress
        // without the user; Drain must not wait for it.
        runnable_jobs_ -= static_cast<int64_t>(state->job_log.size() -
                                               state->jobs_completed);
        idle = runnable_jobs_ == 0;
        if (state->closed) {
          // Closed mid-run: abandon the round; the session never resumes.
          (void)state->pending_backend->TakePending();
        } else {
          state->pending_round = state->pending_backend->TakePending();
          state->awaiting = true;
          // Published in the same critical section as runnable_jobs_'s
          // decrement, so Drain-then-poll observes every parked round.
          AnnounceRound(state);
        }
        state->running = false;
      }
      if (idle) idle_cv_.NotifyAll();
      return;  // ← the lane is free while the user thinks
    }
  }
}

void SessionRouter::RunPendingSessionFiber(SessionState* state) {
  // The kFiber attempt loop. The job log runs inside a Fiber whose
  // suspension hook *parks* (switches back here) instead of throwing, so a
  // resume re-enters the exact frame that asked the question — no rebuild,
  // no replay, no re-walk. The body only fetches jobs and runs them; every
  // piece of completion bookkeeping happens on this (host) side of the
  // switch, after Resume() returns, so counters and the running flag
  // change under the same locking discipline as the replay runner.
  for (;;) {
    bool resume_parked = false;
    bool cancel_parked = false;
    bool live = false;
    int64_t next_round = 0;
    size_t start_job = 0;
    {
      MutexLock lock(&mutex_);
      resume_parked = state->fiber != nullptr;
      cancel_parked = resume_parked && state->fiber_cancel;
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
      // flipped answer); unwind it and fall through to a fresh attempt
      // that replays the corrected prefix.
      UnwindFiber(state);
      continue;
    }
    if (resume_parked) {
      // O(1) resume: hand the answered round's bits to the parked
      // wait-site and switch back in. staged_answers was written by
      // ProvideAnswers under the lock taken above.
      state->pending_backend->StageResumeAnswers(
          std::move(state->staged_answers));
      state->staged_answers.clear();
      state->fiber->Resume();
    } else {
      // Fresh attempt: over the live pipeline when the previous attempt
      // completed the job log (new jobs run directly), otherwise from a
      // rebuilt pipeline with the full answered prefix replayed (first
      // run, or a correction restart — the only quadratic path left, paid
      // once per correction rather than once per round).
      if (!live) {
        std::vector<TranscriptEntry> prefix = state->answered_entries;
        state->session->ResetWithUserReplay(std::move(prefix));
        start_job = 0;
      }
      state->pending_backend->BeginAttempt(next_round);
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
      state->pending_backend->InstallYieldHook(
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
      state->pending_backend->InstallYieldHook(nullptr);
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
        (void)state->pending_backend->TakePending();
        abandoned = true;
      } else {
        state->pending_round = state->pending_backend->TakePending();
        state->awaiting = true;
        state->snapshot_bytes = resident;
        AnnounceRound(state);  // see the replay runner
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
    // Accepted: fold the answered round into the user-boundary transcript
    // and make the session runnable again.
    if (state->fiber != nullptr) {
      // Stage the bits for the parked continuation: the runner hands them
      // to the suspended wait-site before switching back in.
      state->staged_answers.assign(answers.size(), false);
      for (size_t i = 0; i < answers.size(); ++i) {
        state->staged_answers[i] = answers.Get(i);
      }
    }
    for (size_t i = 0; i < round.questions.size(); ++i) {
      state->answered_entries.push_back(TranscriptEntry{
          std::move(round.questions[i]), answers.Get(i), round.round_id});
    }
    ++state->answered_rounds;
    RetireRound(state);
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
    if (entry_index >= state->answered_entries.size()) {
      return ProvideOutcome::kAnswerCountMismatch;
    }
    // Flip the recorded answer and discard everything after it: the later
    // entries answered a question stream computed from the bad answer.
    // The surviving prefix re-aligns on the restart (questions up to the
    // flipped entry depend only on the unchanged answers before it), so
    // the user re-answers nothing they already answered correctly.
    state->answered_entries[entry_index].response =
        !state->answered_entries[entry_index].response;
    state->answered_entries.resize(entry_index + 1);
    // The parked stack and job cursor describe a run over the old
    // answers; restart the whole job log through the ordinary resume path
    // (a full-prefix replay attempt, whatever the resume mode). The
    // abandoned round's id is retired — answered_rounds advances past it —
    // so the restarted session's next round gets a fresh id and a stale
    // ProvideAnswers against the abandoned round reports kStaleRound,
    // never folds old answers into the new question stream.
    ++state->answered_rounds;
    state->pipeline_live = false;
    state->jobs_completed = 0;
    // A parked continuation was built over the old answer; mark it for the
    // runner to unwind before the restart attempt (the unwind runs learner
    // destructors, so it happens on a lane, never under this lock).
    state->fiber_cancel = state->fiber != nullptr;
    state->staged_answers.clear();
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
    // uncompleted jobs were uncounted at suspension, so nothing waits.
    RetireRound(state);
    state->pending_round.reset();
    state->awaiting = false;
  }
  return true;
}

std::optional<SessionStatus> SessionRouter::status(SessionId id) {
  MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return std::nullopt;
  const SessionState* state = it->second.get();
  if (state->awaiting) return SessionStatus::kAwaitingUser;
  if (state->running || !state->queue.empty()) return SessionStatus::kRunning;
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
  stats.compiled_hits = cache_->hits();
  stats.compiled_misses = cache_->misses();
  return stats;
}

}  // namespace qhorn
