#include "src/workload/fleet_driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/oracle/oracle.h"
#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/workload/fingerprint.h"

namespace qhorn {
namespace {

/// Per-session answer source, identical in both arms: ground truth plus an
/// optional seeded noise stage. Rounds reach it in round order either way,
/// so the flip sequence — and therefore the answer stream — is a function
/// of the session spec alone, never of delivery scheduling.
struct UserStack {
  std::unique_ptr<QueryOracle> truth;
  std::unique_ptr<NoisyOracle> noisy;
  MembershipOracle* top = nullptr;
};

UserStack MakeStack(const SessionSpec& s) {
  UserStack stack;
  stack.truth = std::make_unique<QueryOracle>(s.target);
  stack.top = stack.truth.get();
  if (s.noisy()) {
    stack.noisy = std::make_unique<NoisyOracle>(stack.truth.get(), s.flip_rate,
                                                s.noise_seed);
    stack.top = stack.noisy.get();
  }
  return stack;
}

/// Heavy-tailed simulated user latency in scheduler ticks: Pareto-shaped
/// (most users answer within a tick, a few take ~the cap), capped so the
/// sweep loop always terminates.
int64_t DrawLatency(const WorkloadSpec& spec, Rng& rng) {
  if (spec.latency_cap_ticks <= 0) return 0;
  double u = std::max(rng.Uniform(), 1e-9);
  double t = std::pow(u, -spec.latency_alpha) - 1.0;
  return std::min<int64_t>(spec.latency_cap_ticks, static_cast<int64_t>(t));
}

}  // namespace

void SubmitSpecJobs(SessionRouter& router, SessionRouter::SessionId id,
                    const SessionSpec& spec) {
  for (WorkloadJob job : spec.jobs) {
    bool accepted = false;
    switch (job) {
      case WorkloadJob::kLearn:
        accepted = router.SubmitLearn(id);
        break;
      case WorkloadJob::kVerifyTarget:
        accepted = router.SubmitVerify(id, spec.target);
        break;
      case WorkloadJob::kVerifyMutant:
        accepted = router.SubmitVerify(id, spec.mutant);
        break;
      case WorkloadJob::kRevise:
        accepted = router.SubmitRevise(id, spec.mutant);
        break;
    }
    QHORN_CHECK_MSG(accepted, "submit rejected on a live session");
  }
}

// ---------------------------------------------------------------------------
// The hostile arm

FleetResult FleetDriver::RunHostile(ServiceEndpoint& endpoint,
                                    CrashController* crash) {
  const WorkloadSpec& spec = fleet_.spec;
  const size_t count = fleet_.sessions.size();
  FleetResult result;
  result.fingerprints.resize(count);
  auto fail = [&](const std::string& msg) {
    if (!result.ok) return;
    result.ok = false;
    result.failure = msg + " (" + spec.ReproLine() + ")";
  };

  std::vector<UserStack> stacks;
  std::vector<ServiceEndpoint::SessionId> ids;
  std::unordered_map<ServiceEndpoint::SessionId, size_t> index_of;
  stacks.reserve(count);
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const SessionSpec& s = fleet_.sessions[i];
    stacks.push_back(MakeStack(s));
    ServiceEndpoint::SessionId id = endpoint.OpenPending(s);
    QHORN_CHECK_MSG(id != 0, "endpoint refused to open session " << i);
    ids.push_back(id);
    index_of.emplace(id, i);
  }

  // Per-session delivery bookkeeping for the hostile scheduler. The cached
  // answer bits make the driver's users idempotent: a retry after a
  // durable-commit failure (or a crash between computing the answers and
  // the service accepting them) re-sends the *same* bits instead of
  // re-consuming a noisy user's flip stream.
  struct Delivery {
    int64_t seen_round_id = -1;  ///< latest round assigned a deadline
    int64_t due_tick = 0;        ///< simulated user answers at this tick
    int64_t answered_rounds = 0;
    bool closed = false;
    int64_t cached_round_id = -1;
    std::vector<bool> cached_bits;
  };
  std::vector<Delivery> delivery(count);

  // Bounds the OnLogWriteFailed → retry loop: each armed fault fires once,
  // so a healthy recovery makes the retry succeed; a service that keeps
  // refusing past this is broken, not unlucky.
  constexpr int kMaxCommitRetries = 4;

  Rng sched(spec.seed ^ 0xd0d0f00d5eedf00dULL);
  BitVec answer_bits;
  BitVec garbage_bits;
  std::vector<PendingRound*> eligible;
  // Rounds some poll delivered and the driver has not answered or closed,
  // in session order. The poll delivers each round once, so merging every
  // poll in makes each sweep see exactly the awaiting rounds, in the order
  // a poll of the whole awaiting set would list them. A recovered service
  // re-delivers every awaiting round on its first poll; those must be the
  // very rounds already held, since recovery is observably a service that
  // never crashed.
  std::map<ServiceEndpoint::SessionId, PendingRound> outstanding;
  bool may_have_recovered = false;
  int64_t tick = 0;
  for (;;) {
    endpoint.Drain();
    if (crash != nullptr && crash->MaybeCrashAtSweep(result.sweeps)) {
      // The service died and recovered at a round boundary; re-drain the
      // recovered service and re-poll. Observables must not notice — that
      // is the differential.
      ++result.crash_recoveries;
      may_have_recovered = true;
      continue;
    }
    for (PendingRound& round : endpoint.PendingRounds()) {
      const auto [held, fresh] =
          outstanding.try_emplace(round.session_id, std::move(round));
      if (!fresh && (!may_have_recovered ||
                     held->second.round_id != round.round_id)) {
        fail("a poll delivered round " + std::to_string(round.round_id) +
             " of session " + std::to_string(round.session_id) +
             " while round " + std::to_string(held->second.round_id) +
             " was unanswered");
      }
    }
    may_have_recovered = false;
    if (outstanding.empty()) break;
    if (!result.ok) break;  // bail once a protocol assertion failed
    ++result.sweeps;
    ++tick;

    // Stamp a latency deadline on every newly surfaced round, and close
    // abandoning sessions whose configured round count has been answered —
    // the Close lands while a round is pending, and a late reply for the
    // abandoned round must bounce off kSessionClosed.
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      PendingRound& round = it->second;
      size_t idx = index_of.at(round.session_id);
      Delivery& d = delivery[idx];
      const SessionSpec& s = fleet_.sessions[idx];
      if (d.seen_round_id != round.round_id) {
        d.seen_round_id = round.round_id;
        d.due_tick = tick + DrawLatency(spec, sched);
      }
      if (s.abandon && !d.closed &&
          d.answered_rounds >= s.abandon_after_rounds) {
        bool closed_ok = endpoint.Close(round.session_id);
        for (int retry = 0; !closed_ok && crash != nullptr &&
                            retry < kMaxCommitRetries &&
                            crash->OnLogWriteFailed();
             ++retry) {
          ++result.log_write_retries;
          may_have_recovered = true;
          closed_ok = endpoint.Close(round.session_id);
        }
        if (!closed_ok) fail("Close rejected a live awaiting session");
        d.closed = true;
        ++result.abandoned_sessions;
        if (endpoint.ProvideAnswers(round.session_id, round.round_id,
                                    garbage_bits.Prepare(
                                        round.questions.size())) !=
            ProvideOutcome::kSessionClosed) {
          fail("reply to a closed session was not rejected as kSessionClosed");
        }
      }
      it = d.closed ? outstanding.erase(it) : std::next(it);
    }

    // The answerable subset this sweep: open sessions whose simulated user
    // latency has elapsed. Shuffled, and only a fraction answered, so
    // resume order is adversarial with respect to session order.
    eligible.clear();
    for (auto& [id, round] : outstanding) {
      if (delivery[index_of.at(id)].due_tick <= tick) {
        eligible.push_back(&round);
      }
    }
    sched.Shuffle(&eligible);

    // Malformed replies: garbage the service must reject without touching
    // the session. The target round is still live (eligible), so a
    // non-rejection would corrupt a transcript the differential arm
    // compares — that is the point.
    if (!eligible.empty() && sched.Chance(spec.malformed_rate)) {
      const PendingRound& round = *eligible.front();
      ProvideOutcome out = ProvideOutcome::kResumed;
      ProvideOutcome want = ProvideOutcome::kResumed;
      switch (sched.Range(0, 2)) {
        case 0:
          out = endpoint.ProvideAnswers(round.session_id + 1000000,
                                        round.round_id,
                                        garbage_bits.Prepare(
                                            round.questions.size()));
          want = ProvideOutcome::kUnknownSession;
          break;
        case 1:
          out = endpoint.ProvideAnswers(
              round.session_id,
              round.round_id + 1 + static_cast<int64_t>(sched.Range(0, 3)),
              garbage_bits.Prepare(round.questions.size()));
          want = ProvideOutcome::kStaleRound;
          break;
        default:
          out = endpoint.ProvideAnswers(round.session_id, round.round_id,
                                        garbage_bits.Prepare(
                                            round.questions.size() + 1));
          want = ProvideOutcome::kAnswerCountMismatch;
          break;
      }
      ++result.malformed_injected;
      if (out != want) fail("malformed reply was not rejected as expected");
      if (endpoint.status(round.session_id) != SessionStatus::kAwaitingUser) {
        fail("malformed reply disturbed an awaiting session");
      }
    }

    size_t take = eligible.empty()
                      ? 0
                      : std::max<size_t>(
                            1, static_cast<size_t>(
                                   static_cast<double>(eligible.size()) *
                                   spec.answer_fraction));
    for (size_t i = 0; i < take; ++i) {
      PendingRound& round = *eligible[i];
      size_t idx = index_of.at(round.session_id);
      Delivery& d = delivery[idx];
      BitSpan span = answer_bits.Prepare(round.questions.size());
      if (d.cached_round_id == round.round_id) {
        for (size_t q = 0; q < d.cached_bits.size(); ++q) {
          span.Set(q, d.cached_bits[q]);
        }
      } else {
        stacks[idx].top->IsAnswerBatch(round.questions, span);
        d.cached_round_id = round.round_id;
        d.cached_bits.resize(round.questions.size());
        for (size_t q = 0; q < round.questions.size(); ++q) {
          d.cached_bits[q] = span.Get(q);
        }
      }
      ProvideOutcome out =
          endpoint.ProvideAnswers(round.session_id, round.round_id, span);
      for (int retry = 0; out == ProvideOutcome::kLogWriteFailed &&
                          crash != nullptr && retry < kMaxCommitRetries &&
                          crash->OnLogWriteFailed();
           ++retry) {
        // The commit fault may have been a crash in disguise; after
        // recovery the same round is pending again and the cached bits
        // make the retry byte-identical.
        ++result.log_write_retries;
        may_have_recovered = true;
        out = endpoint.ProvideAnswers(round.session_id, round.round_id, span);
      }
      if (out != ProvideOutcome::kResumed) {
        fail(std::string("ProvideAnswers rejected a live, well-formed "
                         "reply (") +
             ToString(out) + ")");
        break;
      }
      ++d.answered_rounds;
      ++result.rounds_answered;
      // Duplicate re-delivery of the round just answered: the session is
      // either running again or already suspended on the *next* round id,
      // so the duplicate must bounce — and must not re-fold the answers.
      if (sched.Chance(spec.duplicate_rate)) {
        ProvideOutcome dup = endpoint.ProvideAnswers(
            round.session_id, round.round_id,
            garbage_bits.Prepare(round.questions.size()));
        ++result.duplicates_injected;
        if (dup != ProvideOutcome::kNotAwaiting &&
            dup != ProvideOutcome::kStaleRound) {
          fail("duplicate round delivery was not rejected");
        }
      }
      const ServiceEndpoint::SessionId id = round.session_id;
      outstanding.erase(id);  // last use of `round`
    }
  }

  for (size_t i = 0; i < count; ++i) {
    if (delivery[i].closed) continue;
    if (endpoint.status(ids[i]) != SessionStatus::kIdle) {
      fail("session " + std::to_string(i) +
           " did not reach kIdle after the fleet drained");
      continue;
    }
    result.fingerprints[i] = SessionFingerprint(endpoint.session(ids[i]));
  }
  if (result.ok) result.stats = endpoint.stats();
  return result;
}

FleetResult FleetDriver::RunPending(int lanes_override, int shards_override) {
  const int threads =
      lanes_override > 0 ? lanes_override : fleet_.spec.lanes;
  QuerySession::Options sopts;
  sopts.learner.existential.speculative_batching =
      fleet_.spec.speculative_batching;
  sopts.learner.universal.speculative_batching =
      fleet_.spec.speculative_batching;
  SessionRouter::Options ropts;
  ropts.threads = threads;
  ropts.shards =
      shards_override > 0 ? shards_override : fleet_.spec.router_shards;
  ropts.session = sopts;
  SessionRouter router(ropts);
  RouterEndpoint endpoint(&router);
  return RunHostile(endpoint);
}

FleetResult FleetDriver::RunSynchronous() {
  FleetResult result;
  result.fingerprints.reserve(fleet_.sessions.size());
  // The question stream depends on these knobs, so the reference arm must
  // match the hostile arm's learner configuration exactly.
  QuerySession::Options options;
  options.learner.existential.speculative_batching =
      fleet_.spec.speculative_batching;
  options.learner.universal.speculative_batching =
      fleet_.spec.speculative_batching;
  ServiceStats& stats = result.stats;
  // One bare session at a time, in fleet order, each over fresh user
  // stacks (each arm consumes its own noise stream from the seed), folded
  // into the counters the way SessionRouter::stats() folds a session.
  for (const SessionSpec& s : fleet_.sessions) {
    UserStack stack = MakeStack(s);
    QuerySession session(s.n, stack.top, options);
    for (WorkloadJob job : s.jobs) {
      switch (job) {
        case WorkloadJob::kLearn:
          session.Learn();
          ++stats.learns;
          break;
        case WorkloadJob::kVerifyTarget:
          session.Verify(s.target);
          ++stats.verifies;
          break;
        case WorkloadJob::kVerifyMutant:
          session.Verify(s.mutant);
          ++stats.verifies;
          break;
        case WorkloadJob::kRevise:
          session.Revise(s.mutant);
          ++stats.revisions;
          break;
      }
      ++stats.jobs;
    }
    result.fingerprints.push_back(SessionFingerprint(session));
    ++stats.sessions;
    stats.questions += session.oracle_stats().questions;
    stats.batched_questions += session.oracle_stats().batched_questions;
    stats.rounds += session.rounds();
    stats.cache_hits += session.cache_hits();
  }
  return result;
}

std::string CompareArmFingerprints(const Fleet& fleet,
                                   const FleetResult& hostile,
                                   const FleetResult& synchronous) {
  for (size_t i = 0; i < fleet.sessions.size(); ++i) {
    // Abandoned sessions carry no fingerprint: their contract is
    // rejection-without-corruption, checked inside the hostile arm.
    if (hostile.fingerprints[i].empty()) continue;
    if (hostile.fingerprints[i] != synchronous.fingerprints[i]) {
      const SessionSpec& s = fleet.sessions[i];
      return "session " + std::to_string(i) + " (" +
             ToString(s.query_class) + ", n=" + std::to_string(s.n) +
             (s.noisy() ? ", noisy" : "") +
             ") diverged from its synchronous replay (" +
             fleet.spec.ReproLine() + ")\n--- hostile arm ---\n" +
             hostile.fingerprints[i] + "--- synchronous arm ---\n" +
             synchronous.fingerprints[i];
    }
  }
  return std::string();
}

DifferentialOutcome RunDifferential(const WorkloadSpec& spec) {
  Fleet fleet = GenerateFleet(spec);
  FleetDriver driver(fleet);
  DifferentialOutcome outcome;
  outcome.pending = driver.RunPending();
  outcome.synchronous = driver.RunSynchronous();
  if (!outcome.pending.ok) {
    outcome.failure = outcome.pending.failure;
    return outcome;
  }
  if (!outcome.synchronous.ok) {
    outcome.failure = outcome.synchronous.failure;
    return outcome;
  }
  outcome.failure =
      CompareArmFingerprints(fleet, outcome.pending, outcome.synchronous);
  outcome.ok = outcome.failure.empty();
  return outcome;
}

}  // namespace qhorn
