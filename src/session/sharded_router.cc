#include "src/session/sharded_router.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/util/check.h"

namespace qhorn {

ShardedRouter::ShardedRouter(Options options) {
  QHORN_CHECK_MSG(options.shards >= 1, "ShardedRouter needs >= 1 shard");
  // `threads` counts session lanes across all shards; 1 stays the
  // synchronous inline executor (the differential baseline — even with
  // many shards, every runner then executes in the caller).
  executor_ = std::make_unique<Executor>(options.threads);
  shards_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    SessionRouter::Options shard;
    shard.session = options.session;
    shard.resume_mode = options.resume_mode;
    shard.executor = executor_.get();
    shards_.push_back(std::make_unique<SessionRouter>(std::move(shard)));
  }
}

ShardedRouter::~ShardedRouter() {
  // Quiesce every shard before joining the pool: Drain() on each returns
  // only when its runnable count hits zero, and joining the executor
  // afterwards guarantees no runner task is still in flight anywhere.
  // Only then may shards unwind their parked fibers and destruct.
  for (auto& shard : shards_) shard->Drain();
  executor_.reset();
  shards_.clear();
}

ShardedRouter::SessionId ShardedRouter::OpenPending(int n) {
  // Refused before taking an id, so a refusal consumes none (and the loop
  // never retries an open no id could make succeed). A shard refuses only
  // an id a caller-chosen open already holds; skip it.
  if (n < 1 || n > kMaxVars) return 0;
  for (;;) {
    const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
    if (Route(id)->OpenPendingAt(id, n) != 0) return id;
  }
}

ShardedRouter::SessionId ShardedRouter::OpenPendingAt(SessionId id, int n) {
  SessionRouter* shard = Route(id);
  return shard == nullptr ? 0 : shard->OpenPendingAt(id, n);
}

bool ShardedRouter::Submit(SessionId id, Job job) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->Submit(id, std::move(job));
}

bool ShardedRouter::SubmitLearn(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->SubmitLearn(id);
}

bool ShardedRouter::SubmitVerify(SessionId id, Query candidate) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->SubmitVerify(id, std::move(candidate));
}

bool ShardedRouter::SubmitRevise(SessionId id, Query candidate) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->SubmitRevise(id, std::move(candidate));
}

std::vector<PendingRound> ShardedRouter::PendingRounds() {
  std::vector<PendingRound> rounds;
  for (auto& shard : shards_) {
    std::vector<PendingRound> batch = shard->PendingRounds();
    rounds.insert(rounds.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const PendingRound& a, const PendingRound& b) {
              return a.session_id < b.session_id;
            });
  return rounds;
}

ProvideOutcome ShardedRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->ProvideAnswers(id, round_id, answers);
}

ProvideOutcome ShardedRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers,
                                             CommitHook commit) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->ProvideAnswers(id, round_id, answers, commit);
}

ProvideOutcome ShardedRouter::CorrectAnswer(SessionId id, size_t entry_index) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->CorrectAnswer(id, entry_index);
}

std::optional<PendingRound> ShardedRouter::pending_round(SessionId id) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return std::nullopt;
  return shard->pending_round(id);
}

bool ShardedRouter::Close(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->Close(id);
}

bool ShardedRouter::Close(SessionId id, CommitHook commit) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->Close(id, commit);
}

std::optional<SessionStatus> ShardedRouter::status(SessionId id) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return std::nullopt;
  return shard->status(id);
}

int64_t ShardedRouter::suspensions(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard == nullptr ? -1 : shard->suspensions(id);
}

void ShardedRouter::Drain() {
  for (auto& shard : shards_) shard->Drain();
}

QuerySession& ShardedRouter::session(SessionId id) {
  SessionRouter* shard = Route(id);
  QHORN_CHECK_MSG(shard != nullptr, "no session " << id);
  return shard->session(id);
}

ServiceStats ShardedRouter::stats() {
  ServiceStats total;
  for (auto& shard : shards_) {
    ServiceStats s = shard->stats();
    total.sessions += s.sessions;
    total.jobs += s.jobs;
    total.learns += s.learns;
    total.verifies += s.verifies;
    total.revisions += s.revisions;
    total.questions += s.questions;
    total.rounds += s.rounds;
    total.batched_questions += s.batched_questions;
    total.cache_hits += s.cache_hits;
    total.suspensions += s.suspensions;
    total.awaiting_sessions += s.awaiting_sessions;
    total.replayed_questions += s.replayed_questions;
    total.snapshot_bytes += s.snapshot_bytes;
    total.corrections += s.corrections;
  }
  return total;
}

}  // namespace qhorn
