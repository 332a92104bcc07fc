#include "src/durable/durable_router.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/util/bit_span.h"
#include "src/util/check.h"
#include "src/workload/fleet_driver.h"

namespace qhorn {

DurableRouter::DurableRouter(Fs* fs, std::string log_dir,
                             DurableRouterOptions options)
    : fs_(fs), log_dir_(std::move(log_dir)), options_(options) {
  QHORN_CHECK(options_.shards >= 1);
  // One router shard per WAL shard (see DurableRouterOptions::shards);
  // lanes, session options and resume mode come from the wrapped router
  // options unchanged.
  ShardedRouter::Options sharded;
  sharded.shards = options_.shards;
  sharded.threads = options_.router.threads;
  sharded.session = options_.router.session;
  sharded.resume_mode = options_.router.resume_mode;
  router_ = std::make_unique<ShardedRouter>(sharded);
}

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
    auto log = SessionLog::Open(fs_, ShardPath(log_dir_, i), options_.log,
                                error);
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

SessionLog* DurableRouter::ShardFor(SessionId external_id) {
  return shards_[static_cast<size_t>(external_id) %
                 static_cast<size_t>(options_.shards)]
      .get();
}

int DurableRouter::RouterShardFor(SessionId external) const {
  return static_cast<int>((external - 1) % options_.shards);
}

void DurableRouter::MapIds(SessionId external, SessionId internal) {
  const auto grow = [](std::vector<SessionId>& map, SessionId index) {
    if (static_cast<size_t>(index) >= map.size()) {
      map.resize(static_cast<size_t>(index) + 1, 0);
    }
  };
  grow(to_internal_, external);
  grow(to_external_, internal);
  to_internal_[static_cast<size_t>(external)] = internal;
  to_external_[static_cast<size_t>(internal)] = external;
}

DurableRouter::SessionId DurableRouter::InternalOf(SessionId external) const {
  if (external <= 0 || static_cast<size_t>(external) >= to_internal_.size()) {
    return 0;
  }
  return to_internal_[static_cast<size_t>(external)];
}

DurableRouter::SessionId DurableRouter::OpenPending(const SessionSpec& spec) {
  // Refuse before logging: a logged open the router cannot host would
  // abort every recovery that replays it.
  if (spec.n < 1 || spec.n > kMaxVars) return 0;
  SessionId external;
  {
    MutexLock lock(&mutex_);
    external = next_external_++;  // reserved: no concurrent open shares it
  }
  // Log before ack. A crash after this append but before OpenPending
  // returns re-creates a session whose id the caller never learned — an
  // orphan that waits forever, which is the durable-service analogue of
  // an abandoned session, not a correctness hole: nothing was
  // acknowledged, so nothing is owed.
  if (!ShardFor(external)->AppendSessionOpened(external, spec)) {
    MutexLock lock(&mutex_);
    // Hand the id back unless a concurrent open already reserved past it.
    if (next_external_ == external + 1) next_external_ = external;
    return 0;
  }
  // Pin the session to the router shard paired with its WAL shard: this
  // session's commit hooks append to WAL `external % shards` while holding
  // router shard `(external - 1) % shards`'s mutex — a 1:1 pairing, so two
  // sessions contend on a router lock iff they share a WAL anyway.
  const SessionId internal =
      router_->OpenPendingOnShard(RouterShardFor(external), spec.n);
  {
    // Mapped before any job can suspend, so every round a concurrent poll
    // sees belongs to a mapped session.
    MutexLock lock(&mutex_);
    MapIds(external, internal);
  }
  SubmitSpecJobs(*router_, internal, spec);
  return external;
}

ProvideOutcome DurableRouter::ProvideAnswers(SessionId id, int64_t round_id,
                                             BitSpan answers) {
  SessionId internal;
  {
    MutexLock lock(&mutex_);
    internal = InternalOf(id);
  }
  if (internal == 0) return ProvideOutcome::kUnknownSession;
  SessionLog* shard = ShardFor(id);
  // The append runs inside the router's commit hook: after validation,
  // before mutation, atomic with the fold. Anything the log did not
  // accept was never acknowledged and never happened in memory.
  auto commit = [&]() -> bool {
    return shard->AppendRoundAnswered(id, round_id, answers);
  };
  return router_->ProvideAnswers(internal, round_id, answers,
                                 SessionRouter::CommitHook(commit));
}

bool DurableRouter::Close(SessionId id) {
  SessionId internal;
  {
    MutexLock lock(&mutex_);
    internal = InternalOf(id);
  }
  if (internal == 0) return false;
  // Log before ack; a duplicate close record (append ok but the router
  // reports already-closed, or a caller retry after a sync failure) is
  // skipped idempotently by Recover.
  if (!ShardFor(id)->AppendSessionClosed(id)) return false;
  return router_->Close(internal);
}

std::vector<PendingRound> DurableRouter::PendingRounds() {
  std::vector<PendingRound> rounds = router_->PendingRounds();
  bool ordered = true;
  {
    MutexLock lock(&mutex_);
    SessionId last = 0;
    for (PendingRound& round : rounds) {
      const auto internal = static_cast<size_t>(round.session_id);
      QHORN_CHECK_MSG(internal < to_external_.size() &&
                          to_external_[internal] != 0,
                      "pending round for unmapped session "
                          << round.session_id);
      round.session_id = to_external_[internal];
      ordered = ordered && round.session_id > last;
      last = round.session_id;
    }
  }
  // The facade's merge is already external-id order whenever the ids were
  // opened one after another (see RouterShardFor); only opens that raced
  // each other or gave up an id leave a session out of place.
  if (!ordered) {
    std::sort(rounds.begin(), rounds.end(),
              [](const PendingRound& a, const PendingRound& b) {
                return a.session_id < b.session_id;
              });
  }
  return rounds;
}

std::optional<PendingRound> DurableRouter::pending_round(SessionId id) {
  SessionId internal;
  {
    MutexLock lock(&mutex_);
    internal = InternalOf(id);
  }
  if (internal == 0) return std::nullopt;
  std::optional<PendingRound> round = router_->pending_round(internal);
  if (round.has_value()) round->session_id = id;
  return round;
}

void DurableRouter::Drain() { router_->Drain(); }

std::optional<SessionStatus> DurableRouter::status(SessionId id) {
  SessionId internal;
  {
    MutexLock lock(&mutex_);
    internal = InternalOf(id);
  }
  if (internal == 0) return std::nullopt;
  return router_->status(internal);
}

QuerySession& DurableRouter::session(SessionId id) {
  SessionId internal;
  {
    MutexLock lock(&mutex_);
    internal = InternalOf(id);
  }
  QHORN_CHECK_MSG(internal != 0, "no durable session " << id);
  return router_->session(internal);
}

ServiceStats DurableRouter::stats() { return router_->stats(); }

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

  // Phase 1 — scan: CRC-check every shard, truncate torn tails loudly,
  // reject anything typed-bad before touching any state.
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
      if (!fs->Truncate(path, read.valid_bytes)) {
        *error = "cannot truncate torn tail of " + path;
        return nullptr;
      }
      ++report->torn_tails_truncated;
      report->torn_bytes_dropped += static_cast<int64_t>(read.dropped_bytes);
    }
    // Phase 2 — fold: build per-session images. Round ids totally order a
    // session's answers, so duplicates (retry echoes) are recognizable as
    // already-seen ids and gaps are recognizable as impossible futures.
    for (LogRecord& rec : read.records) {
      ++report->records_read;
      if (rec.session_id <= 0) {
        *error = "shard " + std::to_string(i) + ": record for session id " +
                 std::to_string(rec.session_id) + ", which is never issued";
        return nullptr;
      }
      SessionImage& image = images[rec.session_id];
      switch (rec.type) {
        case LogRecordType::kSessionOpened:
          if (image.opened) {
            ++report->duplicate_records_skipped;
            break;
          }
          if (rec.spec.n < 1 || rec.spec.n > kMaxVars) {
            *error = "shard " + std::to_string(i) + ": session " +
                     std::to_string(rec.session_id) + " opened with n = " +
                     std::to_string(rec.spec.n) + ", outside [1, " +
                     std::to_string(kMaxVars) + "]";
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

  // Phase 3 — rebuild: fresh router, every session re-opened (in id
  // order) with its job plan resubmitted.
  auto durable = std::unique_ptr<DurableRouter>(
      new DurableRouter(fs, log_dir, options));
  if (!durable->OpenLogs(error)) return nullptr;
  for (const auto& [external, image] : images) {
    SessionId internal = durable->router_->OpenPendingOnShard(
        durable->RouterShardFor(external), image.spec.n);
    {
      // Recovery is single-threaded, but the id maps are guarded members:
      // take the (uncontended) lock so the annotations stay honest.
      MutexLock lock(&durable->mutex_);
      durable->MapIds(external, internal);
      durable->next_external_ =
          std::max(durable->next_external_, external + 1);
    }
    SubmitSpecJobs(*durable->router_, internal, image.spec);
    ++report->sessions_recovered;
  }

  // Phase 4 — replay: feed the logged answers back through the ordinary
  // pending protocol, in round order per session. Determinism does the
  // rest — the re-run learners ask the identical questions, so each
  // logged round must surface with exactly its logged id; anything else
  // is a divergence the recovery refuses to paper over.
  std::map<SessionId, size_t> fed;
  BitVec bits;
  for (;;) {
    durable->router_->Drain();
    bool progress = false;
    for (const auto& [external, image] : images) {
      size_t& next = fed[external];
      if (next >= image.rounds.size()) continue;
      SessionId internal;
      {
        MutexLock lock(&durable->mutex_);
        internal = durable->InternalOf(external);
      }
      std::optional<PendingRound> round =
          durable->router_->pending_round(internal);
      if (!round.has_value()) continue;  // checked after the fixpoint
      const std::vector<bool>& answers = image.rounds[next];
      if (round->round_id != static_cast<int64_t>(next)) {
        std::ostringstream os;
        os << "session " << external << ": replay surfaced round "
           << round->round_id << " where the log expects round " << next;
        *error = os.str();
        return nullptr;
      }
      if (round->questions.size() != answers.size()) {
        std::ostringstream os;
        os << "session " << external << ": replay round " << next << " asks "
           << round->questions.size() << " question(s) but the log recorded "
           << answers.size() << " answer(s)";
        *error = os.str();
        return nullptr;
      }
      BitSpan span = bits.Prepare(answers.size());
      for (size_t q = 0; q < answers.size(); ++q) span.Set(q, answers[q]);
      // The three-argument overload: replay must not re-log what the log
      // just said.
      ProvideOutcome out = durable->router_->ProvideAnswers(
          internal, round->round_id, span);
      if (out != ProvideOutcome::kResumed) {
        std::ostringstream os;
        os << "session " << external << ": replay of round " << next
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
  for (const auto& [external, image] : images) {
    if (fed[external] < image.rounds.size()) {
      std::ostringstream os;
      os << "session " << external << ": log records round " << fed[external]
         << " but the replayed session never asked it";
      *error = os.str();
      return nullptr;
    }
  }

  // Phase 5 — re-close what the log says was closed (after replay, so a
  // session closed mid-round abandons the same round it abandoned then).
  for (const auto& [external, image] : images) {
    if (!image.closed) continue;
    SessionId internal;
    {
      MutexLock lock(&durable->mutex_);
      internal = durable->InternalOf(external);
    }
    durable->router_->Close(internal);
    ++report->sessions_closed;
  }
  durable->router_->Drain();
  return durable;
}

}  // namespace qhorn
