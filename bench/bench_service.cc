// E16 — the concurrent session service end to end.
//
// Simulates a fleet of users against the SessionRouter: each session
// learns its intended query (drawn from a small catalogue), a fraction
// then verifies a candidate or revises a close guess — the DataPlay
// workflow at service scale. Every session is a pending session; this
// thread plays the users through the PendingRounds()/ProvideAnswers
// protocol. The sweep reports aggregate sessions/second at 1 lane vs the
// default executor (QHORN_THREADS-overridable), wall-clock per fleet, and
// the service counters (questions, rounds, question-cache hits,
// suspensions). Correctness is asserted inline: every learned/verified
// query must be equivalent to its session's target, whatever the lane
// count.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_domain.h"
#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/session/router.h"
#include "src/util/executor.h"
#include "src/util/table.h"

using namespace qhorn;

namespace {

std::vector<Query> Catalogue(int n, int distinct) {
  std::vector<Query> targets;
  for (int i = 0; i < distinct; ++i) {
    Rng rng(100 + static_cast<uint64_t>(i));
    RpOptions opts;
    opts.num_heads = 1 + i % 2;
    opts.theta = 2;
    opts.num_conjunctions = 2 + i % 3;
    targets.push_back(RandomRolePreserving(n, rng, opts));
  }
  return targets;
}

/// Runs the fleet over pending sessions: this thread plays every user
/// through the PendingRounds()/ProvideAnswers protocol, answering from one
/// QueryOracle per catalogue target. `mixed` adds a verify (s % 3 == 1) or
/// a revise (s % 3 == 2) after each learn. Returns the wall-clock seconds
/// from the first submit to the last answer.
double RunFleet(int lanes, int sessions, const std::vector<Query>& catalogue,
                bool mixed, ServiceStats* stats_out) {
  std::vector<std::unique_ptr<QueryOracle>> truths;
  truths.reserve(catalogue.size());
  for (const Query& q : catalogue) {
    truths.push_back(std::make_unique<QueryOracle>(q));
  }
  SessionRouter::Options opts;
  opts.threads = lanes;
  SessionRouter router(opts);
  std::vector<SessionRouter::SessionId> ids;
  std::vector<const Query*> targets;
  std::unordered_map<SessionRouter::SessionId, QueryOracle*> truth_of;
  int n = catalogue.front().n();
  for (int s = 0; s < sessions; ++s) {
    size_t c = static_cast<size_t>(s) % catalogue.size();
    SessionRouter::SessionId id = router.OpenPending(n);
    ids.push_back(id);
    targets.push_back(&catalogue[c]);
    truth_of[id] = truths[c].get();
  }
  auto start = std::chrono::steady_clock::now();
  for (int s = 0; s < sessions; ++s) {
    const SessionRouter::SessionId id = ids[static_cast<size_t>(s)];
    const Query& target = *targets[static_cast<size_t>(s)];
    router.SubmitLearn(id);
    if (mixed && s % 3 == 1) router.SubmitVerify(id, target);
    if (mixed && s % 3 == 2) router.SubmitRevise(id, target);
  }
  DrivePendingSessions(router, truth_of);
  auto stop = std::chrono::steady_clock::now();
  for (int s = 0; s < sessions; ++s) {
    QuerySession& session = router.session(ids[static_cast<size_t>(s)]);
    if (!session.current_query().has_value() ||
        !Equivalent(*session.current_query(), *targets[static_cast<size_t>(s)])) {
      std::printf("SERVICE FAILED: session %d diverged from its target\n", s);
      std::exit(1);
    }
  }
  if (stats_out != nullptr) *stats_out = router.stats();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main() {
  PrintHeader("E16 | concurrent session service",
              "SessionRouter over pending sessions answered in-process; "
              "sessions/s at 1 lane vs the default executor");

  const int kDistinct = 4;
  int default_lanes = Executor::DefaultConcurrency();
  std::printf("default executor lanes: %d (QHORN_THREADS to override)\n\n",
              default_lanes);

  TextTable table({"n", "sessions", "1-lane s/s", "multi s/s", "speedup",
                   "questions", "rounds", "q-cache hits"});
  for (int n : {16, 32}) {
    if (SmokeSkip(n, 16)) continue;
    for (int sessions : {SmokeScaled(16, 4), SmokeScaled(64, 8)}) {
      std::vector<Query> catalogue = Catalogue(n, kDistinct);
      ServiceStats stats;
      double seq = RunFleet(1, sessions, catalogue, /*mixed=*/true, nullptr);
      double par =
          RunFleet(default_lanes, sessions, catalogue, /*mixed=*/true, &stats);
      table.Row()
          .Cell(n)
          .Cell(sessions)
          .Cell(sessions / seq, 1)
          .Cell(sessions / par, 1)
          .Cell(seq / par, 2)
          .Cell(stats.questions)
          .Cell(stats.rounds)
          .Cell(stats.cache_hits);
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nspeedup is wall-clock 1-lane / multi-lane for the identical fleet.\n");

  std::printf(
      "\npending-round continuations: N open sessions on 4 lanes, every\n"
      "user round suspending its job (this thread plays the users via\n"
      "PendingRounds/ProvideAnswers); 'suspensions' counts yielded lanes.\n\n");
  TextTable pending({"n", "sessions", "lanes", "s/s", "suspensions",
                     "questions", "wall s"});
  for (int n : {8, 16}) {
    if (SmokeSkip(n, 8)) continue;
    for (int sessions : {SmokeScaled(64, 4), SmokeScaled(256, 8)}) {
      std::vector<Query> catalogue = Catalogue(n, kDistinct);
      ServiceStats stats;
      double wall = RunFleet(4, sessions, catalogue, /*mixed=*/false, &stats);
      pending.Row()
          .Cell(n)
          .Cell(sessions)
          .Cell(4)
          .Cell(sessions / wall, 1)
          .Cell(stats.suspensions)
          .Cell(stats.questions)
          .Cell(wall, 3);
    }
  }
  pending.Print(std::cout);
  return 0;
}
