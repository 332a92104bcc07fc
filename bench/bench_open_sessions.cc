// E18 — open-session memory: what a parked session actually costs.
//
// The service claim behind the sharded router is lots of *open* sessions,
// not lots of running ones: a fleet where nearly every session sits
// suspended on a pending round awaiting its user. This benchmark prices
// that state: it opens K pending sessions on a 4-lane router, submits one
// learn job each, drains until every session is parked on its first user
// round, and reports
//
//   * the process RSS delta per session (the ground truth: everything —
//     session object, transcript, parked fiber stack, router
//     bookkeeping),
//   * the router's own parked-resume accounting (ServiceStats::
//     snapshot_bytes) per session — the resident pages of each parked
//     fiber stack (Fiber::ResidentBytes). Stacks are committed lazily,
//     so a 512 KiB mapping costs only the pages the job touched, which
//     is what makes 512 KiB fiber stacks affordable at fleet scale,
//   * the extrapolated GiB for one million open sessions.
//
// K defaults to 16384 full / 512 smoke (fiber stacks cost two VMAs each —
// guard page + stack — so K is bounded by vm.max_map_count, not memory);
// QHORN_OPEN_SESSIONS overrides without a rebuild.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_domain.h"
#include "src/core/normalize.h"
#include "src/core/random_query.h"
#include "src/session/router.h"
#include "src/util/table.h"

using namespace qhorn;

namespace {

/// Resident-set bytes of this process (/proc/self/statm field 2).
size_t ReadRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

int OpenSessionCount() {
  const char* env = std::getenv("QHORN_OPEN_SESSIONS");
  if (env != nullptr && env[0] != '\0') {
    int k = std::atoi(env);
    if (k > 0) return k;
  }
  return SmokeScaled(16384, 512);
}

struct FleetResult {
  size_t rss_delta = 0;
  int64_t accounted = 0;  ///< ServiceStats::snapshot_bytes across the fleet
  int64_t awaiting = 0;
};

FleetResult ParkFleet(int sessions, const std::vector<Query>& targets) {
  FleetResult result;
  size_t before = ReadRssBytes();
  SessionRouter::Options opts;
  opts.threads = 4;
  SessionRouter router(opts);
  for (int s = 0; s < sessions; ++s) {
    SessionRouter::SessionId id =
        router.OpenPending(targets[static_cast<size_t>(s) % targets.size()].n());
    router.SubmitLearn(id);
  }
  router.Drain();
  ServiceStats stats = router.stats();
  result.awaiting = stats.awaiting_sessions;
  result.accounted = stats.snapshot_bytes;
  result.rss_delta = ReadRssBytes() - before;
  if (result.awaiting != sessions) {
    std::printf("BENCH FAILED: only %lld/%d sessions parked\n",
                static_cast<long long>(result.awaiting), sessions);
    std::exit(1);
  }
  return result;
}

}  // namespace

int main() {
  const int sessions = OpenSessionCount();
  PrintHeader("E18 | open-session memory",
              "K pending sessions parked on their first user round; "
              "bytes/session");
  std::printf("sessions: %d (QHORN_OPEN_SESSIONS to override)\n\n",
              sessions);

  // A small shared target pool: the sessions learn a few distinct queries,
  // so the parked frames are representative without K distinct targets.
  std::vector<Query> targets;
  for (uint64_t seed = 60; seed < 64; ++seed) {
    Rng rng(seed);
    RpOptions opts;
    opts.num_heads = 1;
    opts.theta = 2;
    opts.num_conjunctions = 2;
    opts.conj_size_max = 3;
    targets.push_back(RandomRolePreserving(6, rng, opts));
  }

  TextTable table({"sessions", "rss delta MiB", "rss B/session",
                   "accounted B/session", "GiB @ 1M sessions"});
  FleetResult r = ParkFleet(sessions, targets);
  double per_session =
      static_cast<double>(r.rss_delta) / static_cast<double>(sessions);
  table.Row()
      .Cell(sessions)
      .Cell(static_cast<double>(r.rss_delta) / (1024.0 * 1024.0), 1)
      .Cell(per_session, 0)
      .Cell(static_cast<double>(r.accounted) / static_cast<double>(sessions),
            0)
      .Cell(per_session * 1e6 / (1024.0 * 1024.0 * 1024.0), 2);
  table.Print(std::cout);
  std::printf(
      "\nrss B/session is ground truth (includes session, transcript and\n"
      "router bookkeeping); accounted B/session is the router's own parked-\n"
      "resume number, the resident pages of its parked stack — the gap\n"
      "vs the 512 KiB mapped stack is lazy commit: pages the job never\n"
      "touched are never resident.\n");
  return 0;
}
