// Crash-recovery harness: the hostile fleet, a failing machine, and a
// differential oracle.
//
// RunCrashDifferential(spec) plays FleetDriver's hostile arm against a
// DurableRouter on an in-memory filesystem, while a seeded
// CrashController kills the service at round boundaries (destroy the
// router, drop every unsynced byte, Recover from the log) and injects
// mid-append faults through FaultFs (torn appends that poison the log
// until a crash-recovery, sync failures that force duplicate-record
// retries). The fleet's users — the driver — survive every crash and keep
// using their session ids and cached answer bits.
//
// The oracle is the same as PR 6's hostile harness, strengthened: after
// any number of crashes, per-session fingerprints must equal the
// bare-session synchronous reference bit for bit; and a *final* crash after the fleet
// completes must recover into a router whose sessions reproduce those
// same fingerprints from the log alone. Torn tails must be truncated
// loudly (counted in the recovery reports), corrupt records must be
// rejected with typed errors (covered by the unit suites), duplicate
// records must fold idempotently.

#ifndef QHORN_DURABLE_CRASH_HARNESS_H_
#define QHORN_DURABLE_CRASH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/durable/durable_router.h"
#include "src/durable/fs.h"
#include "src/workload/fleet_driver.h"
#include "src/workload/service_endpoint.h"

namespace qhorn {

/// ServiceEndpoint over a DurableRouter, swappable under the caller's
/// feet: CrashController kills and recovers the underlying router while
/// the driver keeps calling through this object with its stable ids.
class DurableEndpoint : public ServiceEndpoint {
 public:
  /// Creates the wrapped DurableRouter over `fs` at `log_dir`.
  /// ok() is false (with error()) if the log could not be created.
  DurableEndpoint(Fs* fs, std::string log_dir, DurableRouterOptions options);

  bool ok() const { return router_ != nullptr; }
  const std::string& error() const { return error_; }
  DurableRouter& durable() { return *router_; }

  SessionId OpenPending(const SessionSpec& spec) override;
  ProvideOutcome ProvideAnswers(SessionId id, int64_t round_id,
                                BitSpan answers) override;
  bool Close(SessionId id) override;
  std::vector<PendingRound> PendingRounds() override;
  void Drain() override;
  std::optional<SessionStatus> status(SessionId id) override;
  QuerySession& session(SessionId id) override;
  ServiceStats stats() override;

  /// Process death: destroys the router (a dead process holds no state),
  /// drops every unsynced byte (MemFs::CrashAll on `mem`), recovers from
  /// the log into a fresh router. `report` accumulates across calls.
  /// False + error() on a recovery the log could not support.
  bool CrashAndRecover(MemFs* mem, RecoveryReport* report);

 private:
  Fs* fs_;
  std::string log_dir_;
  DurableRouterOptions options_;
  std::unique_ptr<DurableRouter> router_;
  std::string error_;
};

/// Seeded failing machine. Decides per sweep whether to kill the service
/// outright (round-boundary crash) or to arm a FaultFs append/sync fault
/// that fires mid-run; answers the driver's OnLogWriteFailed by
/// recovering (torn append — the log is poisoned) or by green-lighting a
/// plain retry (sync failure — the record is buffered whole, and the
/// retry's duplicate exercises Recover's idempotent skip).
class SeededCrashController : public CrashController {
 public:
  SeededCrashController(uint64_t seed, DurableEndpoint* endpoint, MemFs* mem,
                        FaultFs* faults);

  bool MaybeCrashAtSweep(int64_t sweep) override;
  bool OnLogWriteFailed() override;

  int64_t crashes() const { return crashes_; }
  int64_t soft_retries() const { return soft_retries_; }
  const RecoveryReport& report() const { return report_; }
  const std::string& failure() const { return failure_; }

 private:
  bool CrashRecover();

  DurableEndpoint* endpoint_;
  MemFs* mem_;
  FaultFs* faults_;
  Rng rng_;
  int64_t next_crash_sweep_;
  int crash_budget_;
  int64_t crashes_ = 0;
  int64_t soft_retries_ = 0;
  int64_t torn_seen_ = 0;
  int64_t sync_seen_ = 0;
  RecoveryReport report_;
  std::string failure_;
};

/// The crash differential's full outcome: both arms, the comparison, and
/// the fault/recovery accounting the tests assert vacuity on.
struct CrashOutcome {
  bool ok = false;
  std::string failure;  ///< empty iff ok; carries the seed repro line
  FleetResult hostile;
  FleetResult synchronous;
  int64_t crashes = 0;            ///< full kill+recover cycles
  int64_t soft_retries = 0;       ///< sync-failure retries (no crash)
  RecoveryReport recovery;        ///< accumulated over every recovery
  RecoveryReport final_recovery;  ///< the post-completion recovery check
};

/// Generates the fleet, runs the hostile arm under a seeded failing
/// machine, runs the synchronous reference, compares fingerprints — then
/// crashes the *completed* service one last time and checks that a
/// recovery from the final log reproduces the same fingerprints.
/// `mode` selects the router's resume protocol for the durable service
/// (every recovered incarnation included); nullopt derives it from the
/// spec (`replay_resume` → kReplay, else kFiber), so the crash
/// differential covers both protocols across the fuzz seeds.
CrashOutcome RunCrashDifferential(
    const WorkloadSpec& spec, std::optional<ResumeMode> mode = std::nullopt);

}  // namespace qhorn

#endif  // QHORN_DURABLE_CRASH_HARNESS_H_
