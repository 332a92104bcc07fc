#include "src/session/session.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace qhorn {

QuerySession::QuerySession(int n, MembershipOracle* user)
    : QuerySession(n, user, Options()) {}

QuerySession::QuerySession(int n, MembershipOracle* user, Options options)
    : n_(n), user_(user), options_(options) {
  QHORN_CHECK(user != nullptr);
  QHORN_CHECK(n >= 1 && n <= kMaxVars);
  BuildPipeline(user_);
}

void QuerySession::BuildPipeline(MembershipOracle* backend) {
  history_.clear();
  counting_.emplace(backend);
  cache_.emplace(&*counting_);
  cache_->RecordHistory(&history_);
}

HistoryView QuerySession::history() const {
  return HistoryView(history_, cache_->log());
}

std::vector<TranscriptEntry> QuerySession::TakeUserTranscript() {
  history_.clear();
  return cache_->TakeLog();
}

size_t QuerySession::answered_questions() const {
  const size_t held = replay_.has_value() ? replay_->held() : 0;
  return std::max(cache_->log().size(), held);
}

void QuerySession::Restart(size_t log_index) {
  std::vector<TranscriptEntry> prefix = cache_->TakeLog();
  if (replay_.has_value()) {
    // A round that the replay stage began serving and that then suspended
    // was rolled back out of the cache's log, but the stage still holds
    // it: the longer of the two is the answered prefix. (Once a run gets
    // past that round, the head the stage served joins the log together
    // with the rest.)
    std::vector<TranscriptEntry> held = replay_->TakeTranscript();
    if (held.size() > prefix.size()) prefix = std::move(held);
    replayed_before_ += replay_->replayed();
  }
  QHORN_CHECK_MSG(log_index < prefix.size(),
                  "correction " << log_index << " past the user transcript");
  prefix.resize(log_index + 1);
  prefix[log_index].response = !prefix[log_index].response;
  BuildPipeline(&replay_.emplace(std::move(prefix), user_));
  current_.reset();
}

const Query& QuerySession::Learn() {
  RpLearnerResult result = LearnRolePreserving(n_, &*cache_, options_.learner);
  current_ = std::move(result.query);
  return *current_;
}

VerificationReport QuerySession::Verify(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  VerificationReport report = VerifyQuery(candidate, &*cache_);
  if (report.accepted) current_ = candidate;
  return report;
}

RevisionResult QuerySession::Revise(const Query& candidate) {
  QHORN_CHECK_MSG(candidate.n() == n_, "candidate arity mismatch");
  RevisionResult result = ReviseQuery(candidate, &*cache_, options_.learner);
  current_ = result.query;
  return result;
}

const Query& QuerySession::CorrectAndRelearn(size_t index) {
  QHORN_CHECK_MSG(index < history_.positions.size(),
                  "no history entry " << index);
  Restart(history_.positions[index]);
  return Learn();
}

}  // namespace qhorn
