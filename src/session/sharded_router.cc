#include "src/session/sharded_router.h"

#include <utility>

#include "src/util/check.h"

namespace qhorn {

ShardedRouter::ShardedRouter(Options options) {
  QHORN_CHECK_MSG(options.shards >= 1, "ShardedRouter needs >= 1 shard");
  // Same lane arithmetic as SessionRouter: `threads` counts session lanes,
  // the pool gets one extra worker because the submitting thread sleeps in
  // Drain() rather than running jobs, and 1 stays the synchronous inline
  // executor (the differential baseline — even with many shards, every
  // runner then executes in the caller).
  int lanes = options.threads <= 0 ? Executor::DefaultConcurrency()
                                   : options.threads;
  executor_ = std::make_unique<Executor>(lanes == 1 ? 1 : lanes + 1);
  shards_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    SessionRouter::Options shard;
    shard.session = options.session;
    shard.resume_mode = options.resume_mode;
    shard.executor = executor_.get();
    shard.compiled_cache = &cache_;
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

ShardedRouter::SessionId ShardedRouter::Open(int n, MembershipOracle* user) {
  const int shard = NextShard();
  return Encode(shards_[static_cast<size_t>(shard)]->Open(n, user), shard);
}

ShardedRouter::SessionId ShardedRouter::OpenSimulated(const Query& intended,
                                                      EvalOptions opts) {
  const int shard = NextShard();
  return Encode(
      shards_[static_cast<size_t>(shard)]->OpenSimulated(intended, opts),
      shard);
}

ShardedRouter::SessionId ShardedRouter::OpenPending(int n) {
  return OpenPendingOnShard(NextShard(), n);
}

ShardedRouter::SessionId ShardedRouter::OpenPendingOnShard(int shard, int n) {
  QHORN_CHECK_MSG(shard >= 0 && shard < shards(),
                  "shard " << shard << " out of range");
  const SessionId internal =
      shards_[static_cast<size_t>(shard)]->OpenPending(n);
  return internal == 0 ? 0 : Encode(internal, shard);  // 0: refused open
}

SessionRouter* ShardedRouter::Route(SessionId external) {
  if (external <= 0) return nullptr;
  const SessionId internal = Internal(external);
  if (internal <= 0) return nullptr;
  return shards_[static_cast<size_t>(ShardOf(external))].get();
}

bool ShardedRouter::Submit(SessionId id, Job job) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->Submit(Internal(id), std::move(job));
}

bool ShardedRouter::SubmitLearn(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->SubmitLearn(Internal(id));
}

bool ShardedRouter::SubmitVerify(SessionId id, Query candidate) {
  SessionRouter* shard = Route(id);
  return shard != nullptr &&
         shard->SubmitVerify(Internal(id), std::move(candidate));
}

bool ShardedRouter::SubmitRevise(SessionId id, Query candidate) {
  SessionRouter* shard = Route(id);
  return shard != nullptr &&
         shard->SubmitRevise(Internal(id), std::move(candidate));
}

std::vector<PendingRound> ShardedRouter::PendingRounds() {
  // Each shard's list is in internal-id order, and Encode is monotone in
  // the internal id for a fixed shard, so the re-encoded lists stay sorted
  // and one k-way merge orders the whole poll. Shard counts are small, so
  // the merge scans the list heads instead of keeping a heap.
  std::vector<std::vector<PendingRound>> lists(shards_.size());
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    lists[i] = shards_[i]->PendingRounds();
    for (PendingRound& round : lists[i]) {
      // Shards stamp rounds with their own (internal) ids; the facade
      // speaks external ids everywhere.
      round.session_id = Encode(round.session_id, static_cast<int>(i));
    }
    total += lists[i].size();
  }
  std::vector<size_t> next(lists.size(), 0);
  std::vector<PendingRound> rounds;
  rounds.reserve(total);
  for (size_t taken = 0; taken < total; ++taken) {
    size_t best = lists.size();
    for (size_t i = 0; i < lists.size(); ++i) {
      if (next[i] == lists[i].size()) continue;
      if (best == lists.size() || lists[i][next[i]].session_id <
                                      lists[best][next[best]].session_id) {
        best = i;
      }
    }
    rounds.push_back(std::move(lists[best][next[best]++]));
  }
  return rounds;
}

ProvideOutcome ShardedRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->ProvideAnswers(Internal(id), round_id, answers);
}

ProvideOutcome ShardedRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers,
                                             CommitHook commit) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->ProvideAnswers(Internal(id), round_id, answers, commit);
}

ProvideOutcome ShardedRouter::CorrectAnswer(SessionId id, size_t entry_index) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return ProvideOutcome::kUnknownSession;
  return shard->CorrectAnswer(Internal(id), entry_index);
}

std::optional<PendingRound> ShardedRouter::pending_round(SessionId id) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return std::nullopt;
  std::optional<PendingRound> round = shard->pending_round(Internal(id));
  if (round.has_value()) round->session_id = id;  // external id form
  return round;
}

bool ShardedRouter::Close(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard != nullptr && shard->Close(Internal(id));
}

std::optional<SessionStatus> ShardedRouter::status(SessionId id) {
  SessionRouter* shard = Route(id);
  if (shard == nullptr) return std::nullopt;
  return shard->status(Internal(id));
}

int64_t ShardedRouter::suspensions(SessionId id) {
  SessionRouter* shard = Route(id);
  return shard == nullptr ? -1 : shard->suspensions(Internal(id));
}

void ShardedRouter::Drain() {
  for (auto& shard : shards_) shard->Drain();
}

QuerySession& ShardedRouter::session(SessionId id) {
  SessionRouter* shard = Route(id);
  QHORN_CHECK_MSG(shard != nullptr, "no session " << id);
  return shard->session(Internal(id));
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
  // Every shard reports the *shared* cache's counters; take them once.
  total.compiled_hits = cache_.hits();
  total.compiled_misses = cache_.misses();
  return total;
}

}  // namespace qhorn
