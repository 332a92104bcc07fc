// A session's full observable surface, rendered to a string. This IS the
// determinism contract the service-layer suites and the workload
// differential harness enforce — two runs are "bit-identical" iff their
// fingerprints compare equal. One definition, shared by the router stress
// tests, the continuation suites, the workload fuzz harness and the
// workload macro benchmark: if a new observable is added to QuerySession,
// extend it here and every consumer tightens together.
// (tests/session_fingerprint.h forwards here for the test suites.)

#ifndef QHORN_WORKLOAD_FINGERPRINT_H_
#define QHORN_WORKLOAD_FINGERPRINT_H_

#include <string>

#include "src/session/session.h"

namespace qhorn {

inline std::string SessionFingerprint(QuerySession& session) {
  std::string out;
  out += "q=" + std::to_string(session.questions_asked());
  out += " rounds=" + std::to_string(session.rounds());
  out += " hits=" + std::to_string(session.cache_hits());
  out += " batched=" + std::to_string(session.oracle_stats().batched_questions);
  if (session.current_query().has_value()) {
    out += " current=" + session.current_query()->ToString();
  }
  out += "\n";
  for (const HistoryEntry& e : session.history()) {
    out += std::to_string(e.round) + ":" + e.question.ToString(session.n());
    out += e.response ? "+" : "-";
    out += "\n";
  }
  return out;
}

}  // namespace qhorn

#endif  // QHORN_WORKLOAD_FINGERPRINT_H_
