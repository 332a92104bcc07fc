#include "src/durable/durable_router.h"

#include <sstream>
#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/workload/fleet_driver.h"

namespace qhorn {
namespace {

/// Why the router could not host `spec`, or empty if it can: `n` out of
/// range, or a job that would run a query of another arity (the session
/// aborts on a lane when it reaches that job).
std::string UnhostableReason(const SessionSpec& spec) {
  if (spec.n < 1 || spec.n > kMaxVars) {
    return "n = " + std::to_string(spec.n) + ", outside [1, " +
           std::to_string(kMaxVars) + "]";
  }
  for (WorkloadJob job : spec.jobs) {
    const Query* query = nullptr;
    switch (job) {
      case WorkloadJob::kLearn:
        break;
      case WorkloadJob::kVerifyTarget:
        query = &spec.target;
        break;
      case WorkloadJob::kVerifyMutant:
      case WorkloadJob::kRevise:
        query = &spec.mutant;
        break;
    }
    if (query != nullptr && query->n() != spec.n) {
      return "a job over a query of n = " + std::to_string(query->n()) +
             " in a session of n = " + std::to_string(spec.n);
    }
  }
  return std::string();
}

/// The wrapped router's options, with one router lock shard per WAL shard
/// (see DurableRouterOptions::shards).
SessionRouter::Options RouterOptions(const DurableRouterOptions& options) {
  SessionRouter::Options router = options.router;
  router.shards = options.shards;
  return router;
}

}  // namespace

DurableRouter::DurableRouter(Fs* fs, std::string log_dir,
                             DurableRouterOptions options)
    : fs_(fs),
      log_dir_(std::move(log_dir)),
      options_(options),
      router_(RouterOptions(options_)) {}

DurableRouter::~DurableRouter() = default;

std::string DurableRouter::ShardPath(const std::string& log_dir, int shard) {
  return log_dir + "/shard-" + std::to_string(shard) + ".qlog";
}

bool DurableRouter::OpenLogs(std::string* error) {
  if (!fs_->CreateDirs(log_dir_)) {
    *error = "cannot create log directory " + log_dir_;
    return false;
  }
  shards_.reserve(options_.shards);
  for (int i = 0; i < options_.shards; ++i) {
    auto log = SessionLog::Open(fs_, ShardPath(log_dir_, i), error);
    if (log == nullptr) return false;
    shards_.push_back(std::move(log));
  }
  return true;
}

std::unique_ptr<DurableRouter> DurableRouter::Create(
    Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
    std::string* error) {
  auto router = std::unique_ptr<DurableRouter>(
      new DurableRouter(fs, log_dir, options));
  if (!router->OpenLogs(error)) return nullptr;
  return router;
}

SessionLog* DurableRouter::ShardFor(SessionId id) {
  return shards_[static_cast<size_t>(id % options_.shards)].get();
}

DurableRouter::SessionId DurableRouter::OpenPending(const SessionSpec& spec) {
  // Refuse before logging: a logged open the router cannot host would
  // abort every recovery that replays it.
  if (!UnhostableReason(spec).empty()) return 0;
  // Reserved: no concurrent open shares it.
  const SessionId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Log before ack. A crash after this append but before OpenPending
  // returns re-creates a session whose id the caller never learned — an
  // orphan that waits forever, which is the durable-service analogue of
  // an abandoned session, not a correctness hole: nothing was
  // acknowledged, so nothing is owed.
  SessionLog* log = ShardFor(id);
  if (!log->AppendSessionOpened(id, spec)) {
    // A failed sync leaves the record whole in the buffer, where a later
    // sync can still make it durable, so its id stays spent. A poisoned
    // log's torn tail is truncated by Recover: that id can go back to the
    // next open, unless a concurrent open has taken a later one.
    if (log->poisoned()) {
      SessionId next = id + 1;
      next_id_.compare_exchange_strong(next, id, std::memory_order_relaxed);
    }
    return 0;
  }
  // Only this wrapper opens sessions on router_, and never twice at an id.
  const SessionId opened = router_.OpenPendingAt(id, spec.n);
  QHORN_CHECK_MSG(opened == id, "router refused durable session " << id);
  SubmitSpecJobs(router_, id, spec);
  return id;
}

ProvideOutcome DurableRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  // The append runs inside the router's commit hook: after validation,
  // before mutation, atomic with the fold. Anything the log did not
  // accept was never acknowledged and never happened in memory.
  auto commit = [&]() -> bool {
    return ShardFor(id)->AppendRoundAnswered(id, round_id, answers);
  };
  return router_.ProvideAnswers(id, round_id, answers,
                                SessionRouter::CommitHook(commit));
}

bool DurableRouter::Close(SessionId id) {
  // Logged from the commit hook, like an answer: the router has checked
  // the session is open, so a refused Close logs nothing (and never
  // leaves a SessionClosed that Recover would reject). A caller retry
  // after a sync failure appends a duplicate, which Recover skips.
  auto commit = [&]() -> bool { return ShardFor(id)->AppendSessionClosed(id); };
  return router_.Close(id, SessionRouter::CommitHook(commit));
}

std::vector<PendingRound> DurableRouter::PendingRounds() {
  return router_.PendingRounds();
}

std::optional<PendingRound> DurableRouter::pending_round(SessionId id) {
  return router_.pending_round(id);
}

void DurableRouter::Drain() { router_.Drain(); }

std::optional<SessionStatus> DurableRouter::status(SessionId id) {
  return router_.status(id);
}

QuerySession& DurableRouter::session(SessionId id) {
  return router_.session(id);
}

ServiceStats DurableRouter::stats() { return router_.stats(); }

int64_t DurableRouter::records_logged() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->records_appended();
  return total;
}

// ---------------------------------------------------------------------------
// Recovery

namespace {

/// Everything the log says about one session, folded shard-by-shard.
struct SessionImage {
  SessionSpec spec;
  bool opened = false;
  bool closed = false;
  std::vector<std::vector<bool>> rounds;  // indexed by round id
};

}  // namespace

std::unique_ptr<DurableRouter> DurableRouter::Recover(
    Fs* fs, const std::string& log_dir, const DurableRouterOptions& options,
    RecoveryReport* report, std::string* error) {
  *report = RecoveryReport();
  error->clear();

  // A log written with more shards keeps sessions in files past
  // options.shards; recovering without them would drop those sessions and
  // hand their ids out again. Refused before anything is read or
  // truncated.
  if (const std::string extra = ShardPath(log_dir, options.shards);
      fs->FileExists(extra)) {
    *error = "recovery rejected: " + extra + " exists, so the log was " +
             "written with more than " + std::to_string(options.shards) +
             " shard(s); recover with the shard count it was written with";
    return nullptr;
  }

  // Phase 1 — scan: CRC-check every shard and fold its records into
  // per-session images, rejecting anything typed-bad. Nothing is written
  // before every file has passed, so a refused recovery leaves the log as
  // it found it. Round ids totally order a session's answers, so
  // duplicates (retry echoes) are recognizable as already-seen ids and
  // gaps are recognizable as impossible futures.
  struct TornTail {
    std::string path;
    uint64_t valid_bytes = 0;
    uint64_t dropped_bytes = 0;
  };
  std::vector<TornTail> torn;
  std::map<SessionId, SessionImage> images;
  for (int i = 0; i < options.shards; ++i) {
    const std::string path = ShardPath(log_dir, i);
    LogReadResult read = ReadLog(fs, path);
    if (read.status != LogReadStatus::kOk) {
      *error = std::string("recovery rejected shard ") + std::to_string(i) +
               " (" + ToString(read.status) + "): " + read.error;
      return nullptr;
    }
    if (read.existed && read.torn_tail) {
      torn.push_back({path, read.valid_bytes, read.dropped_bytes});
    }
    for (LogRecord& rec : read.records) {
      ++report->records_read;
      if (rec.session_id <= 0) {
        *error = "shard " + std::to_string(i) + ": record for session id " +
                 std::to_string(rec.session_id) + ", which is never issued";
        return nullptr;
      }
      // A log written with fewer shards keeps a session outside file
      // `id mod shards`, where its next record would land — possibly ahead
      // of its open in this scan's order, so no later recovery could read
      // the log again.
      const auto home = static_cast<int>(rec.session_id % options.shards);
      if (home != i) {
        *error = "recovery rejected: " + path + " holds session " +
                 std::to_string(rec.session_id) + ", which belongs in " +
                 ShardPath(log_dir, home) + " at " +
                 std::to_string(options.shards) + " shard(s); recover with " +
                 "the shard count the log was written with";
        return nullptr;
      }
      SessionImage& image = images[rec.session_id];
      switch (rec.type) {
        case LogRecordType::kSessionOpened:
          if (image.opened) {
            ++report->duplicate_records_skipped;
            break;
          }
          if (std::string why = UnhostableReason(rec.spec); !why.empty()) {
            *error = "shard " + std::to_string(i) + ": session " +
                     std::to_string(rec.session_id) + " opened with " + why;
            return nullptr;
          }
          image.opened = true;
          image.spec = std::move(rec.spec);
          break;
        case LogRecordType::kRoundAnswered: {
          if (!image.opened) {
            *error = "shard " + std::to_string(i) +
                     ": RoundAnswered for never-opened session " +
                     std::to_string(rec.session_id);
            return nullptr;
          }
          auto next = static_cast<int64_t>(image.rounds.size());
          if (rec.round_id < next) {
            ++report->duplicate_records_skipped;
            if (image.rounds[static_cast<size_t>(rec.round_id)] !=
                rec.answers) {
              *error = "session " + std::to_string(rec.session_id) +
                       ": duplicate record for round " +
                       std::to_string(rec.round_id) +
                       " carries different answers";
              return nullptr;
            }
            break;
          }
          if (rec.round_id > next) {
            *error = "session " + std::to_string(rec.session_id) +
                     ": round " + std::to_string(rec.round_id) +
                     " logged but round " + std::to_string(next) +
                     " is missing";
            return nullptr;
          }
          image.rounds.push_back(std::move(rec.answers));
          break;
        }
        case LogRecordType::kSessionClosed:
          if (!image.opened) {
            *error = "shard " + std::to_string(i) +
                     ": SessionClosed for never-opened session " +
                     std::to_string(rec.session_id);
            return nullptr;
          }
          if (image.closed) {
            ++report->duplicate_records_skipped;
            break;
          }
          image.closed = true;
          break;
      }
    }
  }

  // Phase 2 — repair: every file passed, so truncate the torn tails, loudly.
  for (const TornTail& tail : torn) {
    if (!fs->Truncate(tail.path, tail.valid_bytes)) {
      *error = "cannot truncate torn tail of " + tail.path;
      return nullptr;
    }
    ++report->torn_tails_truncated;
    report->torn_bytes_dropped += static_cast<int64_t>(tail.dropped_bytes);
  }

  // Phase 3 — rebuild: fresh router, every session re-opened at its
  // logged id with its job plan resubmitted; new opens continue past the
  // highest one.
  auto durable = std::unique_ptr<DurableRouter>(
      new DurableRouter(fs, log_dir, options));
  if (!durable->OpenLogs(error)) return nullptr;
  for (const auto& [id, image] : images) {
    const SessionId opened = durable->router_.OpenPendingAt(id, image.spec.n);
    QHORN_CHECK_MSG(opened == id, "router refused logged session " << id);
    SubmitSpecJobs(durable->router_, id, image.spec);
    ++report->sessions_recovered;
  }
  if (!images.empty()) durable->next_id_ = images.rbegin()->first + 1;

  // Phase 4 — replay: feed the logged answers back through the ordinary
  // pending protocol, in round order per session. Determinism does the
  // rest — the re-run learners ask the identical questions, so each
  // logged round must be the round its session awaits, under its logged
  // id and with one question per logged answer. ProvideAnswers' typed
  // outcomes are those checks: anything but kResumed is a divergence the
  // recovery refuses to paper over, except kNotAwaiting, which means the
  // session has not asked the round yet (checked after the fixpoint).
  std::map<SessionId, size_t> fed;
  BitVec bits;
  for (;;) {
    durable->router_.Drain();
    bool progress = false;
    for (const auto& [id, image] : images) {
      size_t& next = fed[id];
      if (next >= image.rounds.size()) continue;
      const std::vector<bool>& answers = image.rounds[next];
      BitSpan span = bits.Prepare(answers.size());
      for (size_t q = 0; q < answers.size(); ++q) span.Set(q, answers[q]);
      // The three-argument overload: replay must not re-log what the log
      // just said.
      const ProvideOutcome out = durable->router_.ProvideAnswers(
          id, static_cast<int64_t>(next), span);
      if (out == ProvideOutcome::kNotAwaiting) continue;
      if (out != ProvideOutcome::kResumed) {
        std::ostringstream os;
        os << "session " << id << ": replay of round " << next
           << " was rejected (" << ToString(out) << ")";
        *error = os.str();
        return nullptr;
      }
      ++next;
      ++report->rounds_replayed;
      progress = true;
    }
    if (!progress) break;
  }
  for (const auto& [id, image] : images) {
    if (fed[id] < image.rounds.size()) {
      std::ostringstream os;
      os << "session " << id << ": log records round " << fed[id]
         << " but the replayed session never asked it";
      *error = os.str();
      return nullptr;
    }
  }

  // Phase 5 — re-close what the log says was closed (after replay, so a
  // session closed mid-round abandons the same round it abandoned then).
  for (const auto& [id, image] : images) {
    if (!image.closed) continue;
    durable->router_.Close(id);
    ++report->sessions_closed;
  }
  durable->router_.Drain();
  return durable;
}

}  // namespace qhorn
