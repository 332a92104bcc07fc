#include "src/session/session.h"

#include "src/util/check.h"

namespace qhorn {

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
  history_.clear();
  corrected_prefix_ = std::move(replay_prefix);
  OraclePipeline pipeline(user_);
  if (!user_prefix.empty()) {
    user_replay_ = pipeline.Push<ReplayOracle>(std::move(user_prefix));
  }
  counting_ = pipeline.Push<CountingOracle>();
  cache_ = pipeline.Push<CachingOracle>();
  cache_->RecordHistory(&history_, corrected_prefix_.empty());
  if (!corrected_prefix_.empty()) {
    pipeline.Push<ReplayOracle>(std::span<const TranscriptEntry>(
                                    corrected_prefix_),
                                &history_);
  }
  pipeline_ = std::move(pipeline);
  top_ = pipeline_.top();
}

HistoryView QuerySession::history() const {
  return HistoryView(history_, cache_->log(), corrected_prefix_);
}

std::vector<TranscriptEntry> QuerySession::TakeUserTranscript() {
  // The history indexes the log about to move out; the rebuild that must
  // follow re-records it.
  history_.clear();
  std::vector<TranscriptEntry> log = cache_->TakeLog();
  if (user_replay_ != nullptr) {
    std::vector<TranscriptEntry> prefix = user_replay_->TakeTranscript();
    if (prefix.size() > log.size()) return prefix;
  }
  return log;
}

void QuerySession::ResetWithUserReplay(
    std::vector<TranscriptEntry> user_prefix) {
  continuation_mode_ = true;
  BuildPipeline({}, std::move(user_prefix));
  current_.reset();
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
  // The corrected prefix: the history up to `index`, resolved, with that
  // answer flipped. Later entries were computed from the bad answer and
  // must be re-asked.
  HistoryView history = this->history();
  QHORN_CHECK_MSG(index < history.size(), "no history entry " << index);
  std::vector<TranscriptEntry> prefix;
  prefix.reserve(index + 1);
  for (HistoryEntry e : history) {
    if (prefix.size() == index + 1) break;
    prefix.push_back(TranscriptEntry{e.question, e.response, e.round});
  }
  prefix.back().response = !prefix.back().response;
  // Rebuild the chain with the corrected prefix behind a replay stage;
  // fresh questions flow to the user through a fresh cache (the old cache
  // holds the wrong answer) and the new history re-records the whole
  // corrected run.
  BuildPipeline(std::move(prefix), {});
  RpLearnerResult result = LearnRolePreserving(n_, top_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

}  // namespace qhorn
