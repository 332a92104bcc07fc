#include "src/durable/crash_harness.h"

#include <utility>

#include "src/util/check.h"
#include "src/workload/fingerprint.h"

namespace qhorn {

// ---------------------------------------------------------------------------
// DurableEndpoint

DurableEndpoint::DurableEndpoint(Fs* fs, std::string log_dir,
                                 DurableRouterOptions options)
    : fs_(fs), log_dir_(std::move(log_dir)), options_(options) {
  router_ = DurableRouter::Create(fs_, log_dir_, options_, &error_);
}

ServiceEndpoint::SessionId DurableEndpoint::OpenPending(
    const SessionSpec& spec) {
  return router_->OpenPending(spec);
}

ProvideOutcome DurableEndpoint::ProvideAnswers(SessionId id, int64_t round_id,
                                               BitSpan answers) {
  return router_->ProvideAnswers(id, round_id, answers);
}

bool DurableEndpoint::Close(SessionId id) { return router_->Close(id); }

std::vector<PendingRound> DurableEndpoint::PendingRounds() {
  return router_->PendingRounds();
}

void DurableEndpoint::Drain() { router_->Drain(); }

std::optional<SessionStatus> DurableEndpoint::status(SessionId id) {
  return router_->status(id);
}

QuerySession& DurableEndpoint::session(SessionId id) {
  return router_->session(id);
}

ServiceStats DurableEndpoint::stats() { return router_->stats(); }

bool DurableEndpoint::CrashAndRecover(MemFs* mem, RecoveryReport* report) {
  // Order matters: the process dies first (dropping its handles and every
  // in-memory session), then the machine loses its page cache. Destroying
  // the router drains gracefully, which is fine — executor lanes never
  // touch the log, so the drain adds no records a real kill would lack.
  router_.reset();
  mem->CrashAll();
  RecoveryReport one;
  router_ = DurableRouter::Recover(fs_, log_dir_, options_, &one, &error_);
  report->records_read += one.records_read;
  report->sessions_recovered += one.sessions_recovered;
  report->sessions_closed += one.sessions_closed;
  report->rounds_replayed += one.rounds_replayed;
  report->duplicate_records_skipped += one.duplicate_records_skipped;
  report->torn_tails_truncated += one.torn_tails_truncated;
  report->torn_bytes_dropped += one.torn_bytes_dropped;
  return router_ != nullptr;
}

// ---------------------------------------------------------------------------
// SeededCrashController

SeededCrashController::SeededCrashController(uint64_t seed,
                                             DurableEndpoint* endpoint,
                                             MemFs* mem, FaultFs* faults)
    : endpoint_(endpoint),
      mem_(mem),
      faults_(faults),
      rng_(seed ^ 0xc4a54c4a54ffULL) {
  // First failure lands early (the fleet's opening sweeps carry the most
  // pending state), later ones spread out so the fleet still terminates.
  next_crash_sweep_ = rng_.Range(1, 4);
  crash_budget_ = static_cast<int>(rng_.Range(1, 3));
}

bool SeededCrashController::CrashRecover() {
  if (!endpoint_->CrashAndRecover(mem_, &report_)) {
    failure_ = "recovery failed: " + endpoint_->error();
    return false;
  }
  ++crashes_;
  // A crash discards any armed-but-unfired fault with the machine state
  // it was waiting for; resynchronize the counters so a stale arm is not
  // misread later.
  torn_seen_ = faults_->torn_appends_fired();
  sync_seen_ = faults_->sync_failures_fired();
  return true;
}

bool SeededCrashController::MaybeCrashAtSweep(int64_t sweep) {
  (void)sweep;
  if (crash_budget_ <= 0) return false;
  if (faults_->fault_armed()) return false;  // let the armed fault fire
  if (next_crash_sweep_ > 0) {
    --next_crash_sweep_;
    return false;
  }
  --crash_budget_;
  next_crash_sweep_ = rng_.Range(3, 8);
  switch (rng_.Range(0, 2)) {
    case 0:
      // Round-boundary kill: power loss between sweeps.
      return CrashRecover();
    case 1:
      // Mid-append kill: the k-th append from now tears and poisons the
      // log; the driver sees kLogWriteFailed and OnLogWriteFailed does
      // the crash-recovery.
      faults_->ArmTornAppend(static_cast<int>(rng_.Range(1, 6)));
      return false;
    default:
      // fsync failure: no crash, but the record cannot be acknowledged;
      // the driver's retry appends a duplicate Recover must later skip.
      faults_->ArmSyncFailure(static_cast<int>(rng_.Range(1, 6)));
      return false;
  }
}

bool SeededCrashController::OnLogWriteFailed() {
  if (!failure_.empty()) return false;
  int64_t sync_fired = faults_->sync_failures_fired();
  if (sync_fired > sync_seen_) {
    // The record is buffered whole; a plain retry re-appends it (and the
    // buffered copy becomes a duplicate once a later sync lands).
    sync_seen_ = sync_fired;
    ++soft_retries_;
    return true;
  }
  // Torn append — or an already-poisoned log refusing further appends.
  // Either way only a crash-recovery makes the service writable again.
  return CrashRecover();
}

// ---------------------------------------------------------------------------
// RunCrashDifferential

CrashOutcome RunCrashDifferential(const WorkloadSpec& spec) {
  CrashOutcome outcome;
  Fleet fleet = GenerateFleet(spec);
  FleetDriver driver(fleet);

  MemFs mem;
  FaultFs faults(&mem, spec.seed ^ 0xfa017f5ULL);
  DurableRouterOptions dopts;
  dopts.router.threads = spec.lanes;
  dopts.router.session.learner.existential.speculative_batching =
      spec.speculative_batching;
  dopts.router.session.learner.universal.speculative_batching =
      spec.speculative_batching;
  dopts.log.fsync_policy = FsyncPolicy::kEveryAppend;
  dopts.shards = 1 + static_cast<int>(spec.seed % 4);
  const std::string log_dir = "qlog";

  DurableEndpoint endpoint(&faults, log_dir, dopts);
  if (!endpoint.ok()) {
    outcome.failure =
        "durable endpoint failed to start: " + endpoint.error() + " (" +
        spec.ReproLine() + ")";
    return outcome;
  }
  SeededCrashController controller(spec.seed, &endpoint, &mem, &faults);

  outcome.hostile = driver.RunHostile(endpoint, &controller);
  outcome.crashes = controller.crashes();
  outcome.soft_retries = controller.soft_retries();
  outcome.recovery = controller.report();
  if (!controller.failure().empty()) {
    outcome.failure = controller.failure() + " (" + spec.ReproLine() + ")";
    return outcome;
  }
  if (!outcome.hostile.ok) {
    outcome.failure = outcome.hostile.failure;
    return outcome;
  }

  outcome.synchronous = driver.RunSynchronous();
  if (!outcome.synchronous.ok) {
    outcome.failure = outcome.synchronous.failure;
    return outcome;
  }
  outcome.failure =
      CompareArmFingerprints(fleet, outcome.hostile, outcome.synchronous);
  if (!outcome.failure.empty()) return outcome;

  // Final check: crash the *completed* service and recover from the log
  // alone. Replay must finish every session and land on the same
  // fingerprints — the log really was the whole state. External ids are
  // assigned sequentially from 1 in open order, which is fleet order.
  if (!endpoint.CrashAndRecover(&mem, &outcome.final_recovery)) {
    outcome.failure = "final recovery failed: " + endpoint.error() + " (" +
                      spec.ReproLine() + ")";
    return outcome;
  }
  endpoint.Drain();
  for (size_t i = 0; i < fleet.sessions.size(); ++i) {
    if (outcome.hostile.fingerprints[i].empty()) continue;  // abandoned
    auto id = static_cast<ServiceEndpoint::SessionId>(i + 1);
    if (endpoint.status(id) != SessionStatus::kIdle) {
      outcome.failure = "final recovery left session " + std::to_string(i) +
                        " unfinished (" + spec.ReproLine() + ")";
      return outcome;
    }
    std::string fp = SessionFingerprint(endpoint.session(id));
    if (fp != outcome.synchronous.fingerprints[i]) {
      outcome.failure =
          "session " + std::to_string(i) +
          " recovered from the final log diverged from the synchronous "
          "reference (" +
          spec.ReproLine() + ")\n--- recovered ---\n" + fp +
          "--- synchronous arm ---\n" + outcome.synchronous.fingerprints[i];
      return outcome;
    }
  }

  outcome.ok = true;
  return outcome;
}

}  // namespace qhorn
