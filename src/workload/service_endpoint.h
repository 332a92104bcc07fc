// ServiceEndpoint — the seam between the hostile fleet driver and
// whatever session service it is attacking.
//
// FleetDriver's hostile arm used to talk to a concrete SessionRouter;
// the durable subsystem needs the identical adversarial delivery schedule
// driven against a crash-recovering, write-ahead-logged service
// (src/durable/). This interface is the pending-session protocol reduced
// to exactly what the driver uses, so one hostile loop serves both: the
// in-memory router (RouterEndpoint, fleet_driver.h) and the durable
// wrapper (DurableEndpoint, src/durable/crash_harness.h).
//
// Session ids returned by OpenPending are *stable across recovery*: a
// durable implementation that loses its process and rebuilds from the log
// must keep honoring the ids it handed out before the crash (the durable
// router re-opens each logged session at its logged id), because the
// driver — playing the fleet's users, who survive server crashes — keeps
// using them.

#ifndef QHORN_WORKLOAD_SERVICE_ENDPOINT_H_
#define QHORN_WORKLOAD_SERVICE_ENDPOINT_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/session/router.h"
#include "src/workload/workload.h"

namespace qhorn {

/// The pending-session protocol surface the fleet driver drives.
class ServiceEndpoint {
 public:
  using SessionId = SessionRouter::SessionId;

  virtual ~ServiceEndpoint() = default;

  /// Opens a pending session for `spec` and submits its whole job plan.
  /// Returns an id that stays valid for the fleet's lifetime, across any
  /// number of crash/recover cycles. 0 = the service could not open the
  /// session (a durable endpoint whose log refused the open record).
  virtual SessionId OpenPending(const SessionSpec& spec) = 0;

  /// Semantics of SessionRouter::ProvideAnswers, plus kLogWriteFailed
  /// when a durable endpoint could not commit the round — the session is
  /// untouched and the same call may be retried.
  virtual ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                        BitSpan answers) = 0;

  /// Semantics of SessionRouter::Close; a durable endpoint additionally
  /// returns false when the close record could not be committed (the
  /// session stays open; retryable).
  virtual bool Close(SessionId id) = 0;

  /// The rounds announced since the last poll, carrying the *stable*
  /// session ids, ordered by them. Each round is delivered by exactly one
  /// poll (SessionRouter::PendingRounds); after a crash-recovery the first
  /// poll delivers every awaiting round again.
  virtual std::vector<PendingRound> PendingRounds() = 0;

  virtual void Drain() = 0;

  virtual std::optional<SessionStatus> status(SessionId id) = 0;

  /// The live session, for fingerprinting after the fleet drains.
  virtual QuerySession& session(SessionId id) = 0;

  virtual ServiceStats stats() = 0;
};

/// Crash orchestration hooks for the hostile loop. The driver plays the
/// fleet's users; this object plays the failing machine under the service.
/// Null = nothing ever crashes (the plain RunPending arm).
class CrashController {
 public:
  virtual ~CrashController() = default;

  /// Called once per sweep, between Drain and the round poll — the round
  /// boundary. Return true if the service was crashed and recovered: the
  /// driver re-drains and re-polls, and the recovered service's first poll
  /// re-delivers every awaiting round.
  virtual bool MaybeCrashAtSweep(int64_t sweep) = 0;

  /// Called when the endpoint reports a durable-commit failure
  /// (kLogWriteFailed, or Close returning false on a live session) — an
  /// injected mid-append fault has fired. Recover the service and return
  /// true to have the driver retry the identical call; false aborts the
  /// arm with a protocol failure.
  virtual bool OnLogWriteFailed() = 0;
};

}  // namespace qhorn

#endif  // QHORN_WORKLOAD_SERVICE_ENDPOINT_H_
