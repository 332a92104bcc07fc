// FleetDriver — runs a generated fleet through the session service and
// turns every scenario into a replay-equivalence test.
//
// Two arms, both pure functions of the fleet's seed:
//
//   * RunHostile: the hostile concurrent arm, driven against any
//     ServiceEndpoint. Every session is opened through the endpoint's pending
//     protocol; the driver plays all of the fleet's users at once (Drain →
//     PendingRounds → ProvideAnswers; the poll delivers a round once, so the
//     driver keeps it until it answers or closes it), with adversarial delivery
//     — per-round heavy-tailed simulated latency, sweeps that shuffle the
//     pending rounds and answer only a fraction of them (so sessions resume out
//     of order and interleave with blocked ones), duplicate re-delivery of
//     already-answered rounds, malformed replies (stale round ids, wrong answer
//     counts, unknown sessions) that must be rejected without touching state,
//     and mid-round Close of abandoning sessions. An optional CrashController
//     additionally kills and recovers the service at seeded round boundaries
//     and mid-append (the durable crash harness); the driver, playing users who
//     outlive server crashes, retries refused calls with *cached* answer bits —
//     a noisy user consulted twice about one round must say the same thing
//     twice, because real users do not re-roll their answers when the server
//     restarts. RunPending is the classic in-memory instantiation over a
//     fleet-owned SessionRouter.
//
//   * RunSynchronous: the reference arm — the library itself, with no
//     router. Each session of the fleet runs as a bare QuerySession over
//     its own user stack, answered inline, one session at a time in fleet
//     order (abandoned sessions too: their fingerprints are not
//     compared).
//
// Per-session answer streams are identical across the arms by
// construction: each session's user stack is QueryOracle(target), wrapped
// in a seeded NoisyOracle for noisy users, and a session's rounds reach
// its stack in round order in both arms (a pending session has at most
// one outstanding round; flip draws are consumed in question order within
// a round). Since the learners are deterministic functions of the answer
// stream, per-session observables — the SessionFingerprint — must compare
// equal bit for bit however hostile the delivery was, and however often
// the service crashed. RunDifferential asserts exactly that; every
// failure string carries the spec's one-flag seed repro line.

#ifndef QHORN_WORKLOAD_FLEET_DRIVER_H_
#define QHORN_WORKLOAD_FLEET_DRIVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/session/router.h"
#include "src/workload/service_endpoint.h"
#include "src/workload/workload.h"

namespace qhorn {

/// One arm's outcome. `fingerprints` is indexed by fleet position;
/// abandoned sessions carry an empty fingerprint (their observables are
/// legitimately partial — the contract for them is rejection-without-
/// corruption, not equality).
struct FleetResult {
  bool ok = true;
  std::string failure;  ///< first protocol violation, with seed repro
  std::vector<std::string> fingerprints;
  int64_t rounds_answered = 0;
  int64_t sweeps = 0;
  int64_t malformed_injected = 0;  ///< garbage replies, all rejected
  int64_t duplicates_injected = 0;
  int64_t abandoned_sessions = 0;
  int64_t crash_recoveries = 0;    ///< sweep-boundary crashes performed
  int64_t log_write_retries = 0;   ///< calls retried after kLogWriteFailed
  ServiceStats stats;
};

/// Both arms plus the fingerprint comparison.
struct DifferentialOutcome {
  bool ok = false;
  std::string failure;  ///< empty iff ok; contains "--seed=" otherwise
  FleetResult pending;
  FleetResult synchronous;
};

/// Submits the spec's whole job plan to an already-open session, aborting
/// if the router refuses. Shared by the endpoints and durable recovery
/// (which must rebuild the identical job log).
void SubmitSpecJobs(SessionRouter& router, SessionRouter::SessionId id,
                    const SessionSpec& spec);

/// ServiceEndpoint over an in-memory router — what the classic
/// differential arm runs against, and the shape durable endpoints mimic.
class RouterEndpoint : public ServiceEndpoint {
 public:
  explicit RouterEndpoint(SessionRouter* router) : router_(router) {}

  SessionId OpenPending(const SessionSpec& spec) override {
    SessionId id = router_->OpenPending(spec.n);
    SubmitSpecJobs(*router_, id, spec);
    return id;
  }
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers) override {
    return router_->ProvideAnswers(id, round_id, answers);
  }
  bool Close(SessionId id) override { return router_->Close(id); }
  std::vector<PendingRound> PendingRounds() override {
    return router_->PendingRounds();
  }
  void Drain() override { router_->Drain(); }
  std::optional<SessionStatus> status(SessionId id) override {
    return router_->status(id);
  }
  QuerySession& session(SessionId id) override {
    return router_->session(id);
  }
  ServiceStats stats() override { return router_->stats(); }

 private:
  SessionRouter* router_;
};

class FleetDriver {
 public:
  explicit FleetDriver(const Fleet& fleet) : fleet_(fleet) {}

  /// Hostile concurrent arm against an arbitrary endpoint, optionally
  /// under a crash controller (see file comment).
  FleetResult RunHostile(ServiceEndpoint& endpoint,
                         CrashController* crash = nullptr);

  /// RunHostile over a fleet-owned in-memory router on
  /// `fleet.spec.lanes` lanes (overridable for the benchmarks' lane
  /// sweeps; <= 0 uses the spec). `shards_override` picks the router's
  /// lock shard count (<= 0 uses the spec's `router_shards`) — observables
  /// must not notice, which is exactly what the sharded differentials pin.
  FleetResult RunPending(int lanes_override = 0, int shards_override = 0);

  /// Reference arm: each session as a bare QuerySession, in fleet order.
  /// `stats` folds sessions, jobs, learns, verifies, revisions, questions,
  /// batched_questions, rounds and cache_hits as SessionRouter::stats()
  /// does; the other counters stay 0.
  FleetResult RunSynchronous();

 private:
  const Fleet& fleet_;
};

/// Compares a hostile arm against the synchronous reference, per session.
/// Empty string = identical; otherwise a failure message carrying the
/// seed repro line and both fingerprints. Shared by RunDifferential and
/// the crash harness's RunCrashDifferential.
std::string CompareArmFingerprints(const Fleet& fleet,
                                   const FleetResult& hostile,
                                   const FleetResult& synchronous);

/// The differential harness: generate the fleet, run both arms, compare
/// per-session fingerprints. This is what the fuzz sweep calls per seed.
DifferentialOutcome RunDifferential(const WorkloadSpec& spec);

}  // namespace qhorn

#endif  // QHORN_WORKLOAD_FLEET_DRIVER_H_
