#include "src/session/router.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
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
    case ResumeMode::kDefault:
      return "default";
    case ResumeMode::kFiber:
      return "fiber";
    case ResumeMode::kSnapshot:
      return "snapshot";
    case ResumeMode::kReplay:
      return "replay";
  }
  return "?";
}

SessionRouter::SessionRouter() : SessionRouter(Options()) {}

SessionRouter::SessionRouter(Options options) : options_(std::move(options)) {
  resume_mode_ = options_.resume_mode;
  if (resume_mode_ == ResumeMode::kDefault) {
    const char* env = std::getenv("QHORN_RESUME_MODE");
    if (env != nullptr && std::strcmp(env, "replay") == 0) {
      resume_mode_ = ResumeMode::kReplay;
    } else if (env != nullptr && std::strcmp(env, "snapshot") == 0) {
      resume_mode_ = ResumeMode::kSnapshot;
    } else {
      resume_mode_ = ResumeMode::kFiber;
    }
  }
  // Snapshot resume re-walks the suspended job's question prefix against
  // the restored cache; without the cache those questions would fall
  // through to the user boundary again. Fiber resume never re-walks (the
  // parked frame consumes the answers directly) and replay rebuilds from
  // the user-boundary transcript, so only kSnapshot has the dependency.
  if (!options_.session.cache_questions &&
      resume_mode_ == ResumeMode::kSnapshot) {
    resume_mode_ = ResumeMode::kReplay;
  }
  // Options.threads counts *session lanes*. Session jobs are Post()ed and
  // the submitting thread sleeps in Drain(), so only the executor's
  // workers (concurrency - 1 of them) ever run jobs — ask for one more
  // lane so `threads` sessions really do run concurrently. threads == 1
  // stays the synchronous inline executor (the differential baseline).
  if (options_.executor != nullptr) {
    exec_ = options_.executor;
  } else {
    int lanes = options_.threads <= 0 ? Executor::DefaultConcurrency()
                                      : options_.threads;
    owned_executor_ = std::make_unique<Executor>(lanes == 1 ? 1 : lanes + 1);
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
  // Free announcement nodes for rounds still pending at teardown — both
  // the batch never popped and the retained poll set. No producer is live
  // (workers joined above), so the pop is race-free.
  for (AnnouncementNode* node = announced_rounds_.PopAll(); node != nullptr;) {
    AnnouncementNode* next = node->next;
    delete node;
    node = next;
  }
  {
    MutexLock poll_lock(&poll_mutex_);
    live_announcements_.clear();
  }
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
    int n, MembershipOracle* user,
    std::unique_ptr<MembershipOracle> owned_backend,
    PendingOracle* pending_backend) {
  auto state = std::make_unique<SessionState>();
  state->session = std::make_unique<QuerySession>(n, user, options_.session);
  state->owned_backend = std::move(owned_backend);
  state->pending_backend = pending_backend;
  MutexLock lock(&mutex_);
  SessionId id = next_id_++;
  sessions_.emplace(id, std::move(state));
  return id;
}

SessionRouter::SessionId SessionRouter::Open(int n, MembershipOracle* user) {
  QHORN_CHECK(user != nullptr);
  return OpenInternal(n, user, nullptr, nullptr);
}

SessionRouter::SessionId SessionRouter::OpenSimulated(const Query& intended,
                                                      EvalOptions opts) {
  auto backend = std::make_unique<AsyncOracle>(
      cache_->Get(intended, opts), exec_);
  MembershipOracle* user = backend.get();
  return OpenInternal(intended.n(), user, std::move(backend), nullptr);
}

SessionRouter::SessionId SessionRouter::OpenPending(int n) {
  if (n < 1 || n > kMaxVars) return 0;
  auto backend = std::make_unique<PendingOracle>();
  PendingOracle* pending = backend.get();
  SessionId id = OpenInternal(n, pending, std::move(backend), pending);
  // Safe after the fact: the caller cannot Submit before OpenPending
  // returns, so no round can suspend carrying the unset id.
  pending->set_session_id(id);
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
  if (resume_mode_ == ResumeMode::kFiber) {
    RunPendingSessionFiber(state);
    return;
  }
  // One iteration = one *attempt*. How an attempt re-enters the session is
  // the resolved ResumeMode:
  //
  //   * kReplay: rebuild the pipeline with every answered round replayed
  //     at the user boundary and re-run the job log from the start. Fresh
  //     decorators re-record everything, so the attempt that finally
  //     completes a job leaves observables bit-identical to a synchronous
  //     run. O(prefix) per attempt — the retired quadratic path, kept as
  //     the differential oracle.
  //   * kSnapshot: three re-entry cases. (a) The live pipeline is current
  //     (the previous attempt *completed* the job log and new jobs arrived
  //     later): run the new jobs directly, no rebuild at all. (b) A
  //     suspension snapshot exists: restore it and arm the user boundary
  //     with only the answered rounds the snapshot hasn't absorbed; the
  //     suspended job re-runs from its start, its question prefix served
  //     by the restored cache — no question crosses the user boundary
  //     twice, and completed jobs are skipped via the job cursor. (c)
  //     Neither (first run, or a correction invalidated the snapshot):
  //     fall back to the full-prefix replay attempt.
  //
  // Either way the attempt ends by completing the log or suspending on the
  // first unanswered round; a suspension under kSnapshot captures the next
  // snapshot on the way out. The resumed compute is µs-scale against the
  // human latency that forced the suspension.
  const bool snapshot_mode = resume_mode_ == ResumeMode::kSnapshot;
  for (;;) {
    int64_t next_round = 0;
    size_t start_job = 0;
    size_t suffix_begin = 0;
    bool restore_snapshot = false;
    bool live = false;
    {
      MutexLock lock(&mutex_);
      if (state->jobs_completed >= state->job_log.size()) {
        state->running = false;
        return;
      }
      next_round = state->answered_rounds;
      if (snapshot_mode) {
        live = state->pipeline_live;
        restore_snapshot = !live && state->snapshot.valid;
        if (live || restore_snapshot) start_job = state->jobs_completed;
        suffix_begin = state->entries_cursor;
      }
    }
    // Copying the answered transcript can be O(session lifetime); do it
    // outside the router-wide mutex. Safe unlocked: answered_entries only
    // mutates in ProvideAnswers/CorrectAnswer, which require awaiting ==
    // true, and this runner owns the session (awaiting stays false) until
    // it suspends — the lock above orders this read after the resume's
    // writes. The snapshot is likewise only written by the runner that
    // owns the session and only read here.
    if (live) {
      // Case (a): the session's state already reflects every completed
      // job; just make sure no stale pending state survives.
      state->pending_backend->BeginAttempt(next_round);
    } else if (restore_snapshot) {
      // Case (b): O(1) rounds of user-boundary replay — just the suffix.
      std::vector<TranscriptEntry> suffix(
          state->answered_entries.begin() +
              static_cast<ptrdiff_t>(suffix_begin),
          state->answered_entries.end());
      state->session->RestoreSnapshot(state->snapshot, std::move(suffix));
      state->pending_backend->BeginAttempt(next_round);
    } else {
      // Case (c) / kReplay: full-prefix replay from job 0.
      std::vector<TranscriptEntry> prefix = state->answered_entries;
      state->session->ResetWithUserReplay(std::move(prefix));
      state->pending_backend->BeginAttempt(next_round);
    }
    bool suspended = false;
    try {
      for (size_t i = start_job;; ++i) {
        JobRecord job;
        {
          MutexLock lock(&mutex_);
          if (i >= state->job_log.size()) break;
          job = state->job_log[i];  // copy: re-runs reuse the log
        }
        job.fn(*state->session);
        // The job ran to completion: the next suspension's snapshot must
        // rewind the transcript to *this* boundary (the suspended job
        // re-records its own questions on resume).
        if (snapshot_mode) state->session->MarkJobBoundary();
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
              // The pipeline now reflects every completed job; jobs
              // submitted later may run on it directly, and the parked
              // snapshot has nothing left to resume.
              state->pipeline_live = true;
              state->snapshot = SessionSnapshot();
              state->snapshot_bytes = 0;
              state->entries_cursor = state->answered_entries.size();
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
      // Capture before taking the router lock: the copy is O(session
      // history) and the runner still owns the session.
      SessionSnapshot snap;
      if (snapshot_mode) snap = state->session->CapturePreRound();
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
          if (snapshot_mode) {
            state->snapshot = std::move(snap);
            state->snapshot_bytes = state->snapshot.MemoryBytes();
            // Every answer folded so far is baked into this snapshot
            // (absorbed by the attempt that just suspended); the next
            // restore replays only rounds answered beyond this point.
            state->entries_cursor = state->answered_entries.size();
          }
        }
        state->pipeline_live = false;
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
  // change under the same locking discipline as the unwind-based runners.
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
        AnnounceRound(state);  // see the unwind runner
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
  state->announcement = new AnnouncementNode(*state->pending_round);
  announced_rounds_.Push(state->announcement);
}

void SessionRouter::RetireAnnouncement(SessionState* state) {
  // The release store is this side's last touch of the node: once the poll
  // observes the flag it may free the node at any moment.
  state->announcement->value.retired.store(true, std::memory_order_release);
  state->announcement = nullptr;
}

std::vector<PendingRound> SessionRouter::PendingRounds() {
  MutexLock poll_lock(&poll_mutex_);
  // The freshly announced batch (one atomic exchange), in session order.
  for (AnnouncementNode* node = announced_rounds_.PopAll(); node != nullptr;) {
    AnnouncementNode* next = node->next;
    fresh_announcements_.emplace_back(node);
    node = next;
  }
  const auto session_of = [](const std::unique_ptr<AnnouncementNode>& node) {
    return node->value.round.session_id;
  };
  std::sort(fresh_announcements_.begin(), fresh_announcements_.end(),
            [&](const auto& a, const auto& b) {
              return session_of(a) < session_of(b);
            });
  // Merge it into the retained list, which is already in session order.
  // A node whose round was answered, corrected away or closed is freed;
  // every other node is reported. A session has at most one unretired
  // node: its previous round was retired before it could run again.
  std::vector<PendingRound> rounds;
  rounds.reserve(live_announcements_.size() + fresh_announcements_.size());
  merged_announcements_.reserve(live_announcements_.size() +
                                fresh_announcements_.size());
  auto live = live_announcements_.begin();
  auto fresh = fresh_announcements_.begin();
  while (live != live_announcements_.end() ||
         fresh != fresh_announcements_.end()) {
    const bool take_live =
        fresh == fresh_announcements_.end() ||
        (live != live_announcements_.end() &&
         session_of(*live) <= session_of(*fresh));
    std::unique_ptr<AnnouncementNode>& node = take_live ? *live++ : *fresh++;
    if (node->value.retired.load(std::memory_order_acquire)) {
      node.reset();
      continue;
    }
    rounds.push_back(node->value.round);
    merged_announcements_.push_back(std::move(node));
  }
  live_announcements_.swap(merged_announcements_);
  merged_announcements_.clear();
  fresh_announcements_.clear();
  return rounds;
}

size_t SessionRouter::retained_announcements() {
  MutexLock poll_lock(&poll_mutex_);
  return live_announcements_.size();
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
    // can be retried once the log is healthy). The PR 9 sharding
    // invariant — a DurableRouter commit hook runs under exactly one
    // shard's mutex — is what lets the hook append to this shard's WAL
    // without cross-shard ordering concerns; the rank checker enforces it
    // (a hook reaching into a second shard dies on the same-rank check).
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
    // The answered round's node is dead; the next poll frees it.
    RetireAnnouncement(state);
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
    // The parked snapshot and job cursor describe a run over the old
    // answers; restart the whole job log through the ordinary resume path
    // (a full-prefix replay attempt, whatever the resume mode). The
    // abandoned round's id is retired — answered_rounds advances past it —
    // so the restarted session's next round gets a fresh id and a stale
    // ProvideAnswers against the abandoned round reports kStaleRound,
    // never folds old answers into the new question stream.
    ++state->answered_rounds;
    state->snapshot = SessionSnapshot();
    state->snapshot_bytes = 0;
    state->entries_cursor = 0;
    state->pipeline_live = false;
    state->jobs_completed = 0;
    // A parked continuation was built over the old answer; mark it for the
    // runner to unwind before the restart attempt (the unwind runs learner
    // destructors, so it happens on a lane, never under this lock).
    state->fiber_cancel = state->fiber != nullptr;
    state->staged_answers.clear();
    RetireAnnouncement(state);  // the abandoned round's node is dead
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
  MutexLock lock(&mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  SessionState* state = it->second.get();
  if (state->closed) return false;
  state->closed = true;
  if (state->awaiting) {
    // The user will never answer; abandon the round. The session's
    // uncompleted jobs were uncounted at suspension, so nothing waits.
    RetireAnnouncement(state);
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
