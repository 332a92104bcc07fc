#include "src/session/session.h"

#include "src/util/check.h"

namespace qhorn {

namespace {

size_t TupleSetBytes(const TupleSet& question) {
  return sizeof(TupleSet) + question.heap_bytes();
}

size_t QueryBytes(const std::optional<Query>& query) {
  if (!query.has_value()) return 0;
  return sizeof(Query) + query->universal().size() * sizeof(UniversalHorn) +
         query->existential().size() * sizeof(ExistentialConj);
}

}  // namespace

size_t SessionSnapshot::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const TranscriptEntry& entry : transcript) {
    bytes += sizeof(TranscriptEntry) - sizeof(TupleSet) +
             TupleSetBytes(entry.question);
  }
  // Per-node overhead of the unordered_map buckets: one forward pointer
  // and the cached hash per node, plus the bucket array — approximated as
  // three words per entry.
  for (const auto& [question, answer] : cache) {
    bytes += TupleSetBytes(question) + sizeof(bool) + 3 * sizeof(void*);
  }
  bytes += QueryBytes(current);
  return bytes;
}

QuerySession::QuerySession(int n, MembershipOracle* user)
    : QuerySession(n, user, Options()) {}

QuerySession::QuerySession(int n, MembershipOracle* user, Options options)
    : n_(n), user_(user), options_(options) {
  QHORN_CHECK(user != nullptr);
  QHORN_CHECK(n >= 1 && n <= kMaxVars);
  BuildPipeline({}, {});
}

void QuerySession::BuildPipeline(std::vector<TranscriptEntry> replay_prefix,
                                 std::vector<TranscriptEntry> user_prefix) {
  // The live user-boundary replay stage dies with the old pipeline; bank
  // its served-question count first so user_questions_replayed() stays
  // cumulative across resume attempts.
  if (user_replay_ != nullptr) user_replayed_total_ += user_replay_->replayed();
  user_replay_ = nullptr;
  OraclePipeline pipeline(user_);
  if (!user_prefix.empty()) {
    user_replay_ = pipeline.Push<ReplayOracle>(std::move(user_prefix));
  }
  counting_ = pipeline.Push<CountingOracle>();
  cache_ = options_.cache_questions ? pipeline.Push<CachingOracle>() : nullptr;
  if (!replay_prefix.empty()) {
    pipeline.Push<ReplayOracle>(std::move(replay_prefix));
  }
  transcript_ = pipeline.Push<TranscriptOracle>();
  pipeline_ = std::move(pipeline);
  top_ = pipeline_.top();
}

void QuerySession::ResetWithUserReplay(
    std::vector<TranscriptEntry> user_prefix) {
  continuation_mode_ = true;
  BuildPipeline({}, std::move(user_prefix));
  current_.reset();
  MarkJobBoundary();
}

void QuerySession::MarkJobBoundary() {
  boundary_entries_ = transcript_->entries().size();
  boundary_rounds_ = transcript_->rounds();
  boundary_current_ = current_;
}

SessionSnapshot QuerySession::CapturePreRound() const {
  QHORN_CHECK_MSG(cache_ != nullptr,
                  "snapshot capture requires question caching (the restored "
                  "attempt's re-walk is served from the cache)");
  const std::vector<TranscriptEntry>& entries = transcript_->entries();
  QHORN_CHECK(boundary_entries_ <= entries.size());
  SessionSnapshot snap;
  snap.transcript.assign(entries.begin(),
                         entries.begin() + static_cast<ptrdiff_t>(boundary_entries_));
  snap.transcript_rounds = boundary_rounds_;
  snap.current = boundary_current_;
  snap.cache = cache_->entries();
  snap.cache_hits = cache_->hits();
  snap.cache_misses = cache_->misses();
  snap.counting = counting_->stats();
  snap.replay_hits =
      static_cast<int64_t>(entries.size() - boundary_entries_);
  snap.valid = true;
  return snap;
}

void QuerySession::RestoreSnapshot(const SessionSnapshot& snap,
                                   std::vector<TranscriptEntry> user_suffix) {
  QHORN_CHECK_MSG(options_.cache_questions,
                  "snapshot restore requires question caching");
  QHORN_CHECK(snap.valid);
  continuation_mode_ = true;
  BuildPipeline({}, std::move(user_suffix));
  transcript_->Restore(snap.transcript, snap.transcript_rounds);
  // The suspended job's re-walk re-probes its whole question prefix; every
  // probe is a hit on the restored cache, so starting the counter
  // `replay_hits` low lands it exactly on the captured value once the
  // re-walk reaches the suspension point — the same count a synchronous run
  // would show.
  cache_->Restore(snap.cache, snap.cache_hits - snap.replay_hits,
                  snap.cache_misses);
  counting_->RestoreStats(snap.counting);
  current_ = snap.current;
  MarkJobBoundary();
}

const Query& QuerySession::Learn() {
  RpLearnerResult result = LearnRolePreserving(n_, top_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

VerificationReport QuerySession::Verify(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  VerificationReport report = VerifyQuery(candidate, top_);
  if (report.accepted) current_ = candidate;
  return report;
}

RevisionResult QuerySession::Revise(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  RevisionResult result = ReviseQuery(candidate, top_, options_.learner);
  current_ = result.query;
  return result;
}

const Query& QuerySession::CorrectAndRelearn(size_t index) {
  // A correction invalidates the suffix of the answered user rounds a
  // continuation resume replays; the re-run's question stream could never
  // re-align with the stored prefix and the session would re-suspend on
  // the same question forever. Fail loudly instead of looping.
  QHORN_CHECK_MSG(!continuation_mode_,
                  "CorrectAndRelearn is not supported on pending-round "
                  "continuation sessions; close the session and re-learn");
  transcript_->Correct(index);
  // Rebuild the chain with the corrected prefix behind a replay stage;
  // fresh questions flow to the user through a fresh cache (the old cache
  // holds the wrong answer) and the new transcript re-records the whole
  // corrected run.
  BuildPipeline(transcript_->entries(), {});
  RpLearnerResult result = LearnRolePreserving(n_, top_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

}  // namespace qhorn
