#include "src/session/session.h"

#include "src/util/check.h"

namespace qhorn {

QuerySession::QuerySession(int n, MembershipOracle* user)
    : QuerySession(n, user, Options()) {}

QuerySession::QuerySession(int n, MembershipOracle* user, Options options)
    : n_(n), user_(user), options_(options) {
  QHORN_CHECK(user != nullptr);
  QHORN_CHECK(n >= 1 && n <= kMaxVars);
  BuildPipeline({});
}

void QuerySession::BuildPipeline(std::vector<TranscriptEntry> replay_prefix) {
  replay_.reset();
  history_.clear();
  corrected_prefix_ = std::move(replay_prefix);
  counting_.emplace(user_);
  cache_.emplace(&*counting_);
  cache_->RecordHistory(&history_, corrected_prefix_.empty());
  top_ = &*cache_;
  if (!corrected_prefix_.empty()) {
    top_ = &replay_.emplace(
        &*cache_, std::span<const TranscriptEntry>(corrected_prefix_),
        &history_);
  }
}

HistoryView QuerySession::history() const {
  return HistoryView(history_, cache_->log(), corrected_prefix_);
}

std::vector<TranscriptEntry> QuerySession::TakeUserTranscript() {
  history_.clear();
  return cache_->TakeLog();
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
  BuildPipeline(std::move(prefix));
  RpLearnerResult result = LearnRolePreserving(n_, top_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

}  // namespace qhorn
