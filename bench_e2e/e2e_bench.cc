// End-to-end session benchmark: one seeded WorkloadSpec fleet through the
// production stack — DurableRouter → ShardedRouter → SessionRouter →
// fiber-parked jobs → learners, over 4 WAL shards with an fsync per
// acknowledged call — played by a single driver thread through the
// pending protocol (OpenPending / PendingRounds / ProvideAnswers / Close).
//
// Workloads (each chosen to stress a different layer):
//
//   durable_disk   RealFs WAL in a fresh directory, n = 8–12, ~20% noisy
//                  verify-only users, 32 users with zero think time; a
//                  finished user is replaced at once (closed loop). Each
//                  round pays an fsync against about a microsecond of
//                  learner compute, so the device dominates.
//   learn_compute  MemFs WAL (still encoded, CRC'd and appended), n = 16–32
//                  with speculative batching, 256 users with zero think
//                  time (closed loop). Learner, verifier, lane and driver
//                  compute dominate; the device is out of the picture.
//   parked_fleet   MemFs WAL, n = 4–6, 16384 sessions opened in one burst
//                  (half the ~32k fiber-mapping ceiling), 10% abandoners
//                  who Close mid-round, every round answered after a seeded
//                  heavy-tailed think time (open loop, offered load well
//                  under capacity). Compute is tiny and most sessions sit
//                  parked: per-parked-session memory, fiber creation, the
//                  poll over a large awaiting set, and Close.
//
// Correctness rides on every run: each completed session's fingerprint must
// equal the 1-lane synchronous reference (FleetDriver::RunSynchronous), both
// after the live run and after DurableRouter::Recover on the same log.
//
// --trace 0 prints the end-to-end metrics: the median over the workload's
// phases (fresh routers, --seconds split between them). --trace 1 runs an
// untraced warm-up, a traced and an untraced phase of a third of the time
// each and prints the traced phase's per-layer metrics (measured only at
// public seams, see probes.h), the driver thread's wall time split, and the
// tracing overhead against the untraced phase. The last stdout line is
// always one JSON object.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_e2e/probes.h"
#include "src/durable/durable_router.h"
#include "src/durable/fs.h"
#include "src/oracle/oracle.h"
#include "src/session/session.h"
#include "src/workload/fingerprint.h"
#include "src/workload/fleet_driver.h"
#include "src/workload/workload.h"

using namespace qhorn;

namespace e2e {
namespace {

// The default seed, and a held-out seed kept for confirming a claimed gain
// on inputs the change was not tuned against.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 7919;

// Setup is repeated and its median reported, so one slow mkdir, page-fault
// storm or busy CPU does not decide a setup regression.
constexpr int kSetupReps = 51;

constexpr int kWalShards = 4;
// The open loop's embedding server polls PendingRounds once per tick (a
// back-to-back poll over 16k awaiting rounds would leave the generator no
// time to answer on schedule), opening one wave of its burst per tick.
constexpr int64_t kPollTickNs = 25'000'000;
constexpr int kOpenWave = 256;
// The closed loops ramp up 32 users at a time: the first-round latency of a
// wave then prices opening and first-segment compute, not a queue of every
// user at once.
constexpr int kClosedWave = 32;
// A session the driver has answered (or opened) normally shows its next
// round in a poll; only one that has not after kStatusDelayNs is asked for
// its status(), and then at most once per kStatusPeriodNs. Probing every
// outstanding session on every pass would make status() the driver's main
// work and contend with the lanes on the shard mutexes.
constexpr int64_t kStatusDelayNs = 200'000;
constexpr int64_t kStatusPeriodNs = 1'000'000;
constexpr int kRecoverReps = 3;  // Recover runs per untraced run

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  bool inject_flip = false;
  std::string wal_parent;  // empty: the system temp directory
};

struct Config {
  std::string name;
  bool real_fs = false;
  int n_min = 4;
  int n_max = 6;
  bool speculative = false;
  double abandon_fraction = 0.0;
  int fleet = 0;           // distinct session specs (closed loops cycle them)
  int concurrency = 0;     // > 0: closed loop with this many live users
  double think_scale_s = 0;  // open loop: Lomax scale of the think time
  // > 0: the run is split into measured phases of at least this length on
  // fresh routers (median reported); 0: one phase.
  double phase_s = 0;
  double warmup_s = 0;  // closed loop: unmeasured run-in before the window
  // > 0: peak RSS is read once the phase has accepted this many rounds, so
  // a faster service, which keeps more finished sessions in a fixed time,
  // is not read as a memory regression; 0: at the window's end.
  int64_t rss_rounds = 0;
};

/// Measured phases in a run of `seconds`.
int Phases(const Config& c, double seconds) {
  if (c.phase_s <= 0) return 1;
  return std::max(1, static_cast<int>(seconds / c.phase_s));
}

std::optional<Config> ForWorkload(const std::string& name, bool toy) {
  Config c;
  c.name = name;
  if (name == "durable_disk") {
    c.real_fs = true;
    c.n_min = 8;
    c.n_max = 12;
    c.fleet = toy ? 48 : 2048;
    c.concurrency = toy ? 8 : 32;
    c.warmup_s = toy ? 0.2 : 1;
  } else if (name == "learn_compute") {
    c.n_min = 16;
    c.n_max = 32;
    c.speculative = true;
    c.fleet = toy ? 24 : 512;
    c.concurrency = toy ? 8 : 256;
    c.warmup_s = toy ? 0.2 : 0.5;
    // The router keeps every closed session, so resident memory grows with
    // the questions answered (~0.6 KB each at these sizes, ~2 MB per
    // session); short phases on fresh routers bound the peak.
    c.phase_s = 2;
    c.rss_rounds = toy ? 0 : 100'000;
  } else if (name == "parked_fleet") {
    c.n_min = 4;
    c.n_max = 6;
    c.abandon_fraction = 0.10;
    c.fleet = toy ? 256 : 16384;
    c.think_scale_s = toy ? 0.05 : 0.8;
    // The poll over 16k awaiting rounds is memory-bound, and its speed
    // differs from one heap layout to the next by up to 2x; several bursts
    // on fresh routers, reported as medians, keep a run's latency steady.
    c.phase_s = 3.4;
  } else {
    return std::nullopt;
  }
  return c;
}

/// SplitMix64 finalizer: decorrelates derived seeds.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

WorkloadSpec MakeSpec(const Config& c, uint64_t seed, int lanes) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.sessions = c.fleet;
  spec.lanes = lanes;
  spec.n_min = c.n_min;
  spec.n_max = c.n_max;
  spec.noisy_fraction = 0.2;  // the default mix's noisy verify-only users
  spec.abandon_fraction = c.abandon_fraction;
  spec.speculative_batching = c.speculative;
  return spec;
}

/// The fleet, stratified by schema size: one seeded sub-fleet per n in
/// [n_min, n_max], interleaved, so every prefix a run consumes has the same
/// n mix. Per-round cost grows steeply with n, and without the strata a
/// seed's draw of sizes alone moves throughput by several percent.
Fleet MakeFleet(const WorkloadSpec& spec) {
  const int strata = spec.n_max - spec.n_min + 1;
  const int per = (spec.sessions + strata - 1) / strata;
  std::vector<Fleet> parts;
  for (int n = spec.n_min; n <= spec.n_max; ++n) {
    WorkloadSpec sub = spec;
    sub.seed = Mix(spec.seed, static_cast<uint64_t>(n));
    sub.n_min = n;
    sub.n_max = n;
    sub.sessions = per;
    parts.push_back(GenerateFleet(sub));
  }
  Fleet fleet;
  fleet.spec = spec;
  for (int i = 0; i < spec.sessions; ++i) {
    fleet.sessions.push_back(std::move(
        parts[static_cast<size_t>(i % strata)]
            .sessions[static_cast<size_t>(i / strata)]));
  }
  return fleet;
}

DurableRouterOptions RouterOptions(const WorkloadSpec& spec) {
  DurableRouterOptions o;
  o.router.threads = spec.lanes;
  o.router.resume_mode = ResumeMode::kFiber;
  o.router.session.learner.existential.speculative_batching =
      spec.speculative_batching;
  o.router.session.learner.universal.speculative_batching =
      spec.speculative_batching;
  o.log.fsync_policy = FsyncPolicy::kEveryAppend;
  o.shards = kWalShards;
  return o;
}

std::string ReproLine(const Config& c, const Args& a) {
  return "repro: python3 bench_e2e/run.py --workload " + c.name +
         " --seed=" + std::to_string(a.seed) +
         (a.toy ? " --scale toy" : "");
}

/// The WAL's home: a fresh unique directory on the real filesystem (removed
/// when this object dies, on failure paths too), or an in-memory MemFs.
class Wal {
 public:
  static std::unique_ptr<Wal> Make(bool real, const std::string& parent,
                                   std::string* error) {
    auto wal = std::unique_ptr<Wal>(new Wal());
    if (!real) {
      wal->dir_ = "/wal";
      return wal;
    }
    wal->real_ = std::make_unique<RealFs>();
    std::string base =
        parent.empty() ? std::filesystem::temp_directory_path().string()
                       : parent;
    std::string templ = base + "/qhorn-e2e-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      *error = "mkdtemp failed under " + base + ": " + std::strerror(errno);
      return nullptr;
    }
    wal->dir_ = buf.data();
    return wal;
  }

  ~Wal() {
    if (real_ != nullptr) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  Fs* fs() { return real_ != nullptr ? static_cast<Fs*>(real_.get()) : &mem_; }
  const std::string& dir() const { return dir_; }

 private:
  Wal() = default;
  std::unique_ptr<RealFs> real_;
  MemFs mem_;
  std::string dir_;
};

/// A simulated user: ground truth, optional seeded noise, and the bench's
/// user boundary on top — the same answer stream FleetDriver's stacks give.
struct User {
  std::unique_ptr<QueryOracle> truth;
  std::unique_ptr<NoisyOracle> noisy;
  std::unique_ptr<UserBoundary> top;
};

User MakeUser(const SessionSpec& s, UserProbe* probe) {
  User u;
  u.truth = std::make_unique<QueryOracle>(s.target);
  MembershipOracle* inner = u.truth.get();
  if (s.noisy()) {
    u.noisy = std::make_unique<NoisyOracle>(inner, s.flip_rate, s.noise_seed);
    inner = u.noisy.get();
  }
  u.top = std::make_unique<UserBoundary>(inner, probe);
  return u;
}

/// Reference fingerprints are kept as 64-bit hashes: at n = 32 one
/// session's transcript renders to hundreds of KiB.
uint64_t FingerprintHash(const std::string& fingerprint) {
  return std::hash<std::string>{}(fingerprint);
}

/// The round count a fingerprint records (" rounds=R"), or -1.
int64_t FingerprintRounds(const std::string& fingerprint) {
  const std::string key = " rounds=";
  const size_t at = fingerprint.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(fingerprint.c_str() + at + key.size(), nullptr, 10);
}

/// The synchronous reference of one fleet session, re-run for a failure
/// message.
std::string ReferenceFingerprint(const Fleet& fleet, int spec) {
  Fleet one;
  one.spec = fleet.spec;
  one.spec.sessions = 1;
  one.sessions.push_back(fleet.sessions[static_cast<size_t>(spec)]);
  return FleetDriver(one).RunSynchronous().fingerprints[0];
}

// Driver-thread wall time categories (traced phase).
enum Cat { kOpen, kProvide, kPoll, kStatus, kClose, kUserEval, kWait, kDriver,
           kCats };
constexpr const char* kCatNames[kCats] = {
    "open", "provide", "poll", "status", "close", "user_eval",
    "wait (polls with no news, sleeps)", "driver bookkeeping"};

struct PhaseResult {
  double window_s = 0;
  int64_t rounds = 0;      // accepted ProvideAnswers inside the window
  int64_t completed = 0;   // sessions that ran their whole plan, in window
  // Session work done in the window, in sessions: each accepted round of a
  // session that will finish counts 1 / (its reference round count).
  double session_work = 0;
  int64_t sessions_opened = 0;
  Samples round_lat_us;
  // Per window second, so a stalled second moves one value of a median.
  std::vector<Samples> round_lat_slices;
  std::vector<double> rounds_slices;
  std::vector<double> session_work_slices;
  Samples first_round_us;
  double rss_parked_b = 0;
  double peak_rss_mb = 0;
  bool peak_reset = false;
  bool pinned = false;
  ServiceStats parked_stats;
  int parked_sessions = 0;
  ServiceStats final_stats;
  double tail_s = 0;
  double check_s = 0;
  double recovery_s = 0;
  double recover_read_s = 0;
  bool recovered = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string failure;
  // Traced-only.
  Samples open_us, open_self_us, provide_us, provide_self_us, poll_us,
      close_us, lag_us;
  int64_t polls = 0;
  int64_t rounds_polled = 0;
  int64_t split_ns[kCats] = {};
  Usage proc, driver;
  int64_t fs_ns = 0;
  int64_t append_bytes = 0;
  Samples append_us, sync_us;
  UserProbe user;
};

class Phase {
 public:
  Phase(const Config& cfg, const Args& args, const Fleet& fleet,
        const std::vector<uint64_t>& reference,
        const std::vector<int64_t>& reference_rounds, bool trace,
        bool inject_flip)
      : cfg_(cfg),
        args_(args),
        fleet_(fleet),
        reference_(reference),
        reference_rounds_(reference_rounds),
        trace_(trace),
        inject_flip_(inject_flip),
        closed_(cfg.concurrency > 0) {}

  /// Drives `router` (whose log lives in `wal`, reached through `fs`):
  /// opens the initial users in waves until each is parked on its first
  /// round, measures the window, lets every still-live user leave, checks
  /// fingerprints, then destroys the router and times recovery on the same
  /// log. `tfs` is non-null exactly when tracing.
  PhaseResult Run(std::unique_ptr<DurableRouter> router, Wal* wal, Fs* fs,
                  TracingFs* tfs, const DurableRouterOptions& opts,
                  double seconds, int recover_reps) {
    router_ = router.get();
    malloc_trim(0);
    r_.peak_reset = ResetPeakRss();
    r_.pinned = PinDriverApart();

    // Burst: open the initial users in waves. A closed loop opens its next
    // wave once the last one is parked on its first rounds (or finished);
    // the open loop opens one wave per poll tick.
    const int initial = closed_ ? cfg_.concurrency : cfg_.fleet;
    const int64_t rss_before = RssBytes();
    int opened = 0;
    next_poll_ = NowNs();
    while (r_.failure.empty() && (opened < initial || !outstanding_.empty())) {
      if (!closed_ || outstanding_.empty()) {
        const int wave = closed_ ? kClosedWave : kOpenWave;
        for (int i = 0; i < wave && opened < initial; ++i, ++opened) {
          Open(/*sample_first=*/true);
        }
      }
      if (!closed_) {
        SleepUntil(next_poll_);
        next_poll_ += kPollTickNs;
      }
      Poll();
      CheckOutstanding();
    }
    router_->Drain();
    r_.parked_stats = router_->stats();
    r_.parked_sessions = initial;
    r_.rss_parked_b =
        static_cast<double>(RssBytes() - rss_before) / initial;

    // Users start answering; a closed loop first runs unmeasured until its
    // sessions' lifetimes have spread out from the common start.
    driving_ = true;
    const int64_t start = NowNs();
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Live& s = sessions_[i];
      if (s.state != Live::kAwaiting) continue;
      s.due_ns = start + Think(s);
      due_.push({s.due_ns, static_cast<int64_t>(i + 1)});
    }
    if (cfg_.warmup_s > 0) {
      win_end_ = start + static_cast<int64_t>(cfg_.warmup_s * 1e9);
      Loop();
    }

    // The measured window.
    win_start_ = NowNs();
    win_end_ = win_start_ + static_cast<int64_t>(seconds * 1e9);
    const size_t slices = static_cast<size_t>(std::ceil(seconds));
    r_.round_lat_slices.resize(slices);
    r_.rounds_slices.resize(slices);
    r_.session_work_slices.resize(slices);
    const Usage proc0 = Usage::Read(RUSAGE_SELF);
    const Usage drv0 = Usage::Read(RUSAGE_THREAD);
    if (tfs != nullptr) tfs->set_recording(true);
    r_.user.timed = trace_;
    in_window_ = true;
    Loop();
    in_window_ = false;
    r_.user.timed = false;
    if (tfs != nullptr) tfs->set_recording(false);
    r_.window_s = static_cast<double>(NowNs() - win_start_) / 1e9;
    r_.proc = Usage::Read(RUSAGE_SELF) - proc0;
    r_.driver = Usage::Read(RUSAGE_THREAD) - drv0;
    if (r_.peak_rss_mb == 0) ReadPeakRss();
    // Recovery's router starts its own lanes; they inherit this mask.
    UnpinDriver();

    // Tail: the window is over and every live user leaves — a user with a
    // round pending closes it; a running session is closed once it parks,
    // or counted finished if it completes first.
    int64_t t0 = NowNs();
    tail_ = true;
    Loop();
    router_->Drain();
    r_.tail_s = static_cast<double>(NowNs() - t0) / 1e9;
    r_.final_stats = router_->stats();
    r_.sessions_opened = static_cast<int64_t>(sessions_.size());
    t0 = NowNs();
    CheckFingerprints(*router_, "after the live run");
    r_.check_s = static_cast<double>(NowNs() - t0) / 1e9;

    if (tfs != nullptr) {
      r_.fs_ns = tfs->fs_ns();
      r_.append_bytes = tfs->append_bytes();
      r_.append_us = tfs->append_us();
      r_.sync_us = tfs->sync_us();
    }

    router_ = nullptr;
    router.reset();
    if (recover_reps > 0) Recover(wal, fs, tfs, opts, recover_reps);
    return std::move(r_);
  }

 private:
  struct Live {
    enum State : uint8_t { kStarting, kAwaiting, kAnswered, kDone, kAbandoned };
    int spec = 0;
    State state = kStarting;
    User user;
    int64_t origin_ns = 0;     // open call, or the last answer (or its due)
    bool origin_first = true;  // the next visible round is the first
    bool origin_sampled = false;
    int64_t round_id = -1;
    std::vector<TupleSet> questions;
    int64_t due_ns = 0;
    int64_t next_check_ns = 0;  // earliest status() probe while outstanding
    bool listed = false;        // present in outstanding_
    int answered = 0;
  };

  struct Due {
    int64_t due_ns;
    int64_t id;
    bool operator>(const Due& o) const { return due_ns > o.due_ns; }
  };

  bool sampling() const { return in_window_ && !tail_; }

  void Fail(const std::string& msg) {
    ++r_.failed;
    if (r_.failure.empty()) r_.failure = msg + " (" + ReproLine(cfg_, args_) + ")";
  }

  void Add(Cat cat, int64_t ns) {
    if (!trace_ || !in_window_) return;
    r_.split_ns[cat] += ns;
    attributed_ns_ += ns;
  }

  /// Scope timer for one step of the driver loop: whatever the step's
  /// service calls and user evaluations did not account for is the
  /// driver's own bookkeeping.
  class Step {
   public:
    explicit Step(Phase* phase)
        : phase_(phase), t0_(NowNs()), attributed0_(phase->attributed_ns_) {}
    ~Step() {
      phase_->Add(kDriver, NowNs() - t0_ -
                               (phase_->attributed_ns_ - attributed0_));
    }
    Step(const Step&) = delete;
    Step& operator=(const Step&) = delete;

   private:
    Phase* phase_;
    int64_t t0_;
    int64_t attributed0_;
  };

  /// Seeded think time of a session's next round: 0 in the closed loops
  /// and the tail; Lomax(α = 1.5) scaled by think_scale_s in the open loop,
  /// capped at 12 scales. A pure function of (seed, spec, round).
  int64_t Think(const Live& s) const {
    if (closed_ || tail_) return 0;
    uint64_t h = Mix(args_.seed ^ 0x7417c4ULL,
                     static_cast<uint64_t>(s.spec) * 4096 +
                         static_cast<uint64_t>(s.answered));
    double u = (static_cast<double>(h >> 11) + 0.5) * (1.0 / 9007199254740992.0);
    double x = std::min(12.0, std::pow(u, -1.0 / 1.5) - 1.0);
    return static_cast<int64_t>(x * cfg_.think_scale_s * 1e9);
  }

  Live& At(int64_t id) { return sessions_[static_cast<size_t>(id - 1)]; }

  bool Open(bool sample_first) {
    Step step(this);
    Live s;
    s.spec = static_cast<int>(next_spec_++ % static_cast<int64_t>(cfg_.fleet));
    const SessionSpec& spec = fleet_.sessions[static_cast<size_t>(s.spec)];
    s.user = MakeUser(spec, &r_.user);
    if (inject_flip_ && !flip_armed_ && spec.noisy()) {
      s.user.top->ArmFlip(0);
      flip_armed_ = true;
    }
    const int64_t fs0 = t_fs_ns;
    const int64_t t0 = NowNs();
    const DurableRouter::SessionId id = router_->OpenPending(spec);
    const int64_t t1 = NowNs();
    ++r_.attempted;
    if (id == 0) {
      Fail("OpenPending refused a well-formed open");
      return false;
    }
    if (id != static_cast<int64_t>(sessions_.size()) + 1) {
      Fail("OpenPending returned a non-sequential session id");
      return false;
    }
    s.origin_ns = t0;
    s.origin_sampled = sample_first;
    s.next_check_ns = t1 + kStatusDelayNs;
    s.listed = true;
    sessions_.push_back(std::move(s));
    outstanding_.push_back(id);
    ++live_;
    Add(kOpen, t1 - t0);
    if (trace_ && !tail_) {
      r_.open_us.Add(static_cast<double>(t1 - t0) / 1e3);
      r_.open_self_us.Add(static_cast<double>(t1 - t0 - (t_fs_ns - fs0)) / 1e3);
    }
    return true;
  }

  void Poll() {
    Step step(this);
    const int64_t t0 = NowNs();
    std::vector<PendingRound> rounds = router_->PendingRounds();
    const int64_t t1 = NowNs();
    int64_t fresh = 0;
    for (PendingRound& round : rounds) {
      if (round.session_id < 1 ||
          round.session_id > static_cast<int64_t>(sessions_.size())) {
        Fail("PendingRounds surfaced an unknown session id");
        continue;
      }
      Live& s = At(round.session_id);
      if (s.state != Live::kStarting && s.state != Live::kAnswered) continue;
      ++fresh;
      if (s.origin_sampled && !tail_) {
        if (s.origin_first) {
          r_.first_round_us.Add(static_cast<double>(t1 - s.origin_ns) / 1e3);
        } else {
          RoundLatency(t1, static_cast<double>(t1 - s.origin_ns) / 1e3);
        }
      }
      s.state = Live::kAwaiting;
      s.round_id = round.round_id;
      s.questions = std::move(round.questions);
      if (driving_) {
        s.due_ns = t1 + Think(s);
        due_.push({s.due_ns, round.session_id});
      }
    }
    if (sampling()) {
      ++r_.polls;
      r_.rounds_polled += fresh;
      if (trace_) r_.poll_us.Add(static_cast<double>(t1 - t0) / 1e3);
    }
    // Freeing the poll's result is part of the poll's price.
    const int64_t t2 = NowNs();
    rounds = {};
    Add(fresh > 0 ? kPoll : kWait, (t1 - t0) + (NowNs() - t2));
  }

  /// The window second `t` falls in (clamped to the window).
  size_t Slice(int64_t t) const {
    const size_t slice = static_cast<size_t>(
        std::max<int64_t>(0, t - win_start_) / 1'000'000'000);
    return std::min(slice, r_.round_lat_slices.size() - 1);
  }

  /// A round-latency sample, filed under the window second it ended in.
  void RoundLatency(int64_t now, double us) {
    r_.round_lat_us.Add(us);
    if (in_window_) r_.round_lat_slices[Slice(now)].Add(us);
  }

  /// Tail: every user still holding a pending round closes it.
  void LeaveAwaiting() {
    Step step(this);
    while (!due_.empty()) {
      Due d = due_.top();
      due_.pop();
      Live& s = At(d.id);
      if (s.state != Live::kAwaiting || s.due_ns != d.due_ns) continue;
      ++r_.attempted;
      if (!router_->Close(d.id)) Fail("Close refused a live awaiting session");
      Retire(s, Live::kAbandoned);
    }
  }

  void AnswerDue() {
    Step step(this);
    const int64_t now = NowNs();
    while (!due_.empty() && due_.top().due_ns <= now) {
      Due d = due_.top();
      due_.pop();
      Live& s = At(d.id);
      if (s.state != Live::kAwaiting || s.due_ns != d.due_ns) continue;
      Answer(s, d.id);
    }
  }

  void Answer(Live& s, int64_t id) {
    const SessionSpec& spec = fleet_.sessions[static_cast<size_t>(s.spec)];
    if (trace_ && sampling()) {
      r_.lag_us.Add(static_cast<double>(NowNs() - s.due_ns) / 1e3);
    }
    if (spec.abandon && s.answered >= spec.abandon_after_rounds) {
      // The user walks away with this round still pending.
      const int64_t t0 = NowNs();
      const bool ok = router_->Close(id);
      const int64_t t1 = NowNs();
      ++r_.attempted;
      if (!ok) Fail("Close refused a live awaiting session");
      if (trace_ && sampling()) r_.close_us.Add(static_cast<double>(t1 - t0) / 1e3);
      Add(kClose, t1 - t0);
      Retire(s, Live::kAbandoned);
      return;
    }
    BitSpan span = bits_.Prepare(s.questions.size());
    const int64_t t0 = NowNs();
    s.user.top->IsAnswerBatch(s.questions, span);
    const int64_t fs0 = t_fs_ns;
    const int64_t t1 = NowNs();
    const ProvideOutcome out = router_->ProvideAnswers(id, s.round_id, span);
    const int64_t t2 = NowNs();
    ++r_.attempted;
    Add(kUserEval, t1 - t0);
    Add(kProvide, t2 - t1);
    if (out != ProvideOutcome::kResumed) {
      Fail(std::string("ProvideAnswers refused a live, well-formed reply (") +
           ToString(out) + ")");
      Retire(s, Live::kAbandoned);
      return;
    }
    if (++accepted_ == cfg_.rss_rounds) ReadPeakRss();
    if (sampling()) {
      ++r_.rounds;
      ++r_.rounds_slices[Slice(t2)];
      if (!spec.abandon) {
        const double work =
            1.0 / static_cast<double>(
                      reference_rounds_[static_cast<size_t>(s.spec)]);
        r_.session_work += work;
        r_.session_work_slices[Slice(t2)] += work;
      }
      if (trace_) {
        r_.provide_us.Add(static_cast<double>(t2 - t1) / 1e3);
        r_.provide_self_us.Add(
            static_cast<double>(t2 - t1 - (t_fs_ns - fs0)) / 1e3);
      }
    }
    ++s.answered;
    s.state = Live::kAnswered;
    s.origin_ns = closed_ ? t1 : s.due_ns;
    s.origin_first = false;
    s.origin_sampled = sampling();
    s.next_check_ns = t2 + kStatusDelayNs;
    s.questions = {};
    if (!s.listed) {
      s.listed = true;
      outstanding_.push_back(id);
    }
  }

  void CheckOutstanding() {
    Step step(this);
    size_t keep = 0;
    for (int64_t id : outstanding_) {
      Live& s = At(id);
      if (s.state != Live::kStarting && s.state != Live::kAnswered) {
        s.listed = false;
        continue;
      }
      const int64_t t0 = NowNs();
      if (t0 < s.next_check_ns) {
        outstanding_[keep++] = id;
        continue;
      }
      const std::optional<SessionStatus> st = router_->status(id);
      const int64_t t1 = NowNs();
      s.next_check_ns = t1 + kStatusPeriodNs;
      Add(kStatus, t1 - t0);
      if (!st.has_value()) {
        Fail("status() lost a live session");
        Retire(s, Live::kAbandoned);
        continue;
      }
      if (*st == SessionStatus::kIdle) {
        Complete(s, id, t1);
        continue;
      }
      outstanding_[keep++] = id;
    }
    outstanding_.resize(keep);
  }

  void Complete(Live& s, int64_t id, int64_t now) {
    if (s.origin_sampled && !s.origin_first && !tail_) {
      RoundLatency(now, static_cast<double>(now - s.origin_ns) / 1e3);
    }
    if (sampling()) ++r_.completed;
    // The user is done and leaves.
    const int64_t t0 = NowNs();
    const bool ok = router_->Close(id);
    const int64_t t1 = NowNs();
    ++r_.attempted;
    if (!ok) Fail("Close refused a finished session");
    if (trace_ && sampling()) r_.close_us.Add(static_cast<double>(t1 - t0) / 1e3);
    Add(kClose, t1 - t0);
    Retire(s, Live::kDone);
  }

  void ReadPeakRss() {
    r_.peak_rss_mb = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  }

  void Retire(Live& s, Live::State state) {
    s.state = state;
    s.listed = false;
    s.user = User();
    s.questions = {};
    --live_;
  }

  void SleepUntil(int64_t wake) {
    const int64_t t0 = NowNs();
    if (wake <= t0) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake - t0));
    Add(kWait, NowNs() - t0);
  }

  void Loop() {
    for (;;) {
      if (!r_.failure.empty() && r_.failed > 16) return;  // runaway failure
      const int64_t now = NowNs();
      if (!tail_ && now >= win_end_) return;
      if (tail_ && live_ == 0) return;
      if (closed_ || tail_) {
        // Closed loop (and the tail): poll back to back, answer at once.
        while (closed_ && !tail_ && live_ < cfg_.concurrency &&
               Open(/*sample_first=*/false)) {
        }
        Poll();
        if (tail_) {
          LeaveAwaiting();
        } else {
          AnswerDue();
        }
        CheckOutstanding();
        continue;
      }
      // Open loop: answer each round when due, poll once per tick, and
      // sleep in between.
      if (now >= next_poll_) {
        next_poll_ = std::max(next_poll_ + kPollTickNs, now);
        Poll();
        CheckOutstanding();
      }
      AnswerDue();
      int64_t wake = std::min(next_poll_, win_end_);
      if (!due_.empty()) wake = std::min(wake, due_.top().due_ns);
      SleepUntil(wake);
    }
  }

  /// Times DurableRouter::Recover on the finished log `reps` times (Recover
  /// only reads a cleanly closed log) and keeps the median; the last
  /// recovered service must match the reference too.
  void Recover(Wal* wal, Fs* fs, TracingFs* tfs,
               const DurableRouterOptions& opts, int reps) {
    std::vector<std::pair<double, double>> times;  // (total s, read s)
    for (int rep = 0; rep < reps; ++rep) {
      RecoveryReport report;
      std::string error;
      const int64_t read0 = tfs != nullptr ? tfs->read_ns() : 0;
      const int64_t t0 = NowNs();
      std::unique_ptr<DurableRouter> recovered =
          DurableRouter::Recover(fs, wal->dir(), opts, &report, &error);
      const double total = static_cast<double>(NowNs() - t0) / 1e9;
      const double read =
          tfs != nullptr ? static_cast<double>(tfs->read_ns() - read0) / 1e9
                         : 0.0;
      if (recovered == nullptr) {
        Fail("Recover failed: " + error);
        return;
      }
      times.emplace_back(total, read);
      if (rep + 1 == reps) {
        CheckFingerprints(*recovered, "after Recover");
      }
    }
    std::sort(times.begin(), times.end());
    r_.recovery_s = times[times.size() / 2].first;
    r_.recover_read_s = times[times.size() / 2].second;
    r_.recovered = true;
  }

  void CheckFingerprints(DurableRouter& router, const char* when) {
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const Live& s = sessions_[i];
      if (s.state != Live::kDone) continue;
      const std::string got =
          SessionFingerprint(router.session(static_cast<int64_t>(i + 1)));
      if (FingerprintHash(got) == reference_[static_cast<size_t>(s.spec)]) {
        continue;
      }
      const SessionSpec& spec = fleet_.sessions[static_cast<size_t>(s.spec)];
      std::string detail;
      if (r_.failure.empty()) {
        detail = "\n--- live ---\n" + got.substr(0, 400) +
                 "\n--- reference ---\n" +
                 ReferenceFingerprint(fleet_, s.spec).substr(0, 400) + "\n";
      }
      Fail("session " + std::to_string(i + 1) + " (spec " +
           std::to_string(s.spec) + ", " + ToString(spec.query_class) +
           ", n=" + std::to_string(spec.n) + (spec.noisy() ? ", noisy" : "") +
           ") diverged from the synchronous reference " + when + detail);
    }
  }

  const Config& cfg_;
  const Args& args_;
  const Fleet& fleet_;
  const std::vector<uint64_t>& reference_;
  const std::vector<int64_t>& reference_rounds_;
  const bool trace_;
  const bool inject_flip_;
  const bool closed_;
  DurableRouter* router_ = nullptr;
  PhaseResult r_;
  int64_t attributed_ns_ = 0;  // traced window time already split
  std::vector<Live> sessions_;         // index = session id - 1
  std::vector<int64_t> outstanding_;   // opened or answered, next round unseen
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
  int64_t live_ = 0;
  int64_t accepted_ = 0;  // accepted ProvideAnswers since the burst
  int64_t next_spec_ = 0;
  int64_t win_start_ = 0;
  int64_t win_end_ = 0;
  int64_t next_poll_ = 0;  // open loop: start of the next poll tick
  bool driving_ = false;   // users answer (warm-up, window and tail)
  bool in_window_ = false;  // the measured window
  bool tail_ = false;
  bool flip_armed_ = false;
  BitVec bits_;
};

// ---------------------------------------------------------------------------
// The traced synchronous pass: learner and verifier self time.

struct SyncPass {
  double learn_self_s = 0;
  double revise_self_s = 0;
  double verify_self_s = 0;
  int64_t rounds = 0;
  double self_s() const { return learn_self_s + revise_self_s + verify_self_s; }
};

/// Runs every session's job plan synchronously over QuerySession, with the
/// user boundary timing the users; each call's time minus its user time is
/// the learner's (or verifier's) self time.
SyncPass RunSyncPass(const Fleet& fleet) {
  SyncPass pass;
  QuerySession::Options sopts;
  sopts.learner.existential.speculative_batching =
      fleet.spec.speculative_batching;
  sopts.learner.universal.speculative_batching =
      fleet.spec.speculative_batching;
  UserProbe probe;
  probe.timed = true;
  for (const SessionSpec& spec : fleet.sessions) {
    User user = MakeUser(spec, &probe);
    QuerySession session(spec.n, user.top.get(), sopts);
    for (WorkloadJob job : spec.jobs) {
      const int64_t eval0 = probe.eval_ns;
      const int64_t t0 = NowNs();
      switch (job) {
        case WorkloadJob::kLearn:
          session.Learn();
          break;
        case WorkloadJob::kVerifyTarget:
          session.Verify(spec.target);
          break;
        case WorkloadJob::kVerifyMutant:
          session.Verify(spec.mutant);
          break;
        case WorkloadJob::kRevise:
          session.Revise(spec.mutant);
          break;
      }
      const double self =
          static_cast<double>(NowNs() - t0 - (probe.eval_ns - eval0)) / 1e9;
      if (job == WorkloadJob::kLearn) {
        pass.learn_self_s += self;
      } else if (job == WorkloadJob::kRevise) {
        pass.revise_self_s += self;
      } else {
        pass.verify_self_s += self;
      }
    }
    pass.rounds += session.rounds();
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  if (title[0] != '\0') std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Per-metric median across phases (metric lists share one order); a NaN
/// marks a phase that did not measure the metric.
std::vector<Metric> MedianMetrics(const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const std::vector<Metric>& run : runs) {
      if (!std::isnan(run[m].value)) values.push_back(run[m].value);
    }
    if (values.empty()) continue;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    out[m].value = values.size() % 2 == 1
                       ? values[mid]
                       : (values[mid - 1] + values[mid]) / 2;
  }
  return out;
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

/// Median over the window's whole seconds of a per-second count, as a rate.
/// A window shorter than a second falls back to the whole-window rate.
double RateMedian(const std::vector<double>& slices, double total,
                  double window_s) {
  std::vector<double> values;
  for (size_t i = 0; i + 1 <= static_cast<size_t>(window_s) && i < slices.size();
       ++i) {
    values.push_back(slices[i]);
  }
  if (values.empty()) return window_s > 0 ? total / window_s : 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

/// Round-latency percentile as the median, over the window's seconds, of
/// each second's percentile: one stalled second moves one of ten values,
/// not the whole tail. Seconds with under 100 samples are skipped; with
/// none left, the whole-window percentile stands.
double SliceMedian(const std::vector<Samples>& slices, const Samples& all,
                   double pct) {
  std::vector<double> values;
  for (const Samples& s : slices) {
    if (s.count() >= 100) values.push_back(s.Percentile(pct));
  }
  if (values.empty()) return all.Percentile(pct);
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

std::string BuildType() {
#ifdef E2E_BUILD_TYPE
  std::string type = E2E_BUILD_TYPE;
#else
  std::string type = "unknown";
#endif
#ifndef NDEBUG
  type += " (assertions on)";
#endif
  return type.empty() ? "none" : type;
}

const char* SimdLevel() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

void PrintContext(const Config& cfg, const Args& args, int lanes, int phases,
                  const std::string& wal_fs) {
  const std::string build = BuildType();
  std::printf("qhorn end-to-end session benchmark\n");
  std::printf("  workload        %s%s\n", cfg.name.c_str(),
              args.toy ? " (toy scale)" : "");
  std::printf("  seed            %" PRIu64 "  (default %" PRIu64
              ", held-out %" PRIu64 ")\n",
              args.seed, kDefaultSeed, kHeldOutSeed);
  std::printf("  nproc           %ld (lanes %d on CPUs 1.., driver pinned "
              "to CPU 0 while measuring)\n",
              sysconf(_SC_NPROCESSORS_ONLN), lanes);
  std::printf("  cpu             %s\n", CpuModel().c_str());
  std::printf("  kernel          %s\n", KernelName().c_str());
  std::printf("  build           %s\n", build.c_str());
  std::printf("  simd            %s\n", SimdLevel());
  std::printf("  wal             %d shards, fsync every append, %s\n",
              kWalShards, wal_fs.c_str());
  if (args.trace) {
    std::printf("  window          %.3g s in 3 phases: untraced warm-up, "
                "traced, untraced\n", args.seconds);
  } else {
    std::printf("  window          %.3g s in %d phase(s), median reported\n",
                args.seconds, phases);
  }
  if (build.rfind("Release", 0) != 0) {
    std::printf(
        "\n  !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
        "  !!! WARNING: NOT A RELEASE BUILD — numbers are not comparable !!!\n"
        "  !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n");
  }
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto take = [&]() -> bool {
      if (eq != std::string::npos) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--inject-flip") {
      a->inject_flip = true;
      continue;
    }
    if (!take()) return false;
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      a->trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "toy" && value != "full") return false;
      a->toy = value == "toy";
    } else if (arg == "--wal-parent") {
      a->wal_parent = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload durable_disk|learn_compute|"
                 "parked_fleet [--seed N] [--seconds S] [--trace 0|1] "
                 "[--scale full|toy] [--wal-parent DIR] [--inject-flip]\n");
    return 2;
  }
  std::optional<Config> maybe_cfg = ForWorkload(args.workload, args.toy);
  if (!maybe_cfg.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Config& cfg = *maybe_cfg;
  const int phases = Phases(cfg, args.seconds);
  const int lanes =
      std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) - 1);
  const WorkloadSpec spec = MakeSpec(cfg, args.seed, lanes);
  const DurableRouterOptions opts = RouterOptions(spec);

  // Setup: fleet generation, the WAL directory, DurableRouter::Create.
  Samples setup_s;
  Fleet fleet;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<DurableRouter> router;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    router.reset();
    wal.reset();
    // Each rep on the next CPU: on a shared host one vCPU can run a third
    // slower than another for minutes, and a median over reps on a single
    // CPU would inherit that CPU's state.
    PinToCpu(rep);
    const int64_t t0 = NowNs();
    fleet = MakeFleet(spec);
    wal = Wal::Make(cfg.real_fs, args.wal_parent, &error);
    if (wal != nullptr) router = DurableRouter::Create(wal->fs(), wal->dir(), opts, &error);
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    if (router == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
  }
  UnpinDriver();
  const std::string wal_fs =
      cfg.real_fs ? "RealFs on " + FsTypeName(wal->dir()) + " (" + wal->dir() + ")"
                  : "MemFs (in memory)";
  PrintContext(cfg, args, lanes, phases, wal_fs);

  // The reference arm, outside every timed phase.
  int64_t t0 = NowNs();
  ServiceStats reference_stats;
  std::vector<uint64_t> reference;
  std::vector<int64_t> reference_rounds;
  {
    FleetResult arm = FleetDriver(fleet).RunSynchronous();
    reference_stats = arm.stats;
    for (const std::string& fp : arm.fingerprints) {
      reference.push_back(FingerprintHash(fp));
      reference_rounds.push_back(FingerprintRounds(fp));
      if (reference_rounds.back() < 0) {
        std::fprintf(stderr, "reference session %zu has no round count\n",
                     reference_rounds.size() - 1);
        return 1;
      }
    }
  }
  // Hand the reference arm's freed heap back before anything is measured.
  malloc_trim(0);
  const double reference_s = static_cast<double>(NowNs() - t0) / 1e9;
  const double fleet_n = static_cast<double>(fleet.sessions.size());
  std::printf("\nreference arm   %zu sessions, 1 lane, %.2f s\n",
              fleet.sessions.size(), reference_s);

  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string failure;
  auto fold = [&](const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (failure.empty()) failure = p.failure;
  };
  auto e2e_metrics = [&](const PhaseResult& p) {
    return std::vector<Metric>{
        {"setup_s", setup_s.Percentile(50), "s"},
        {"rounds_per_s",
         RateMedian(p.rounds_slices, static_cast<double>(p.rounds), p.window_s),
         "1/s"},
        {"round_latency_p50_us",
         SliceMedian(p.round_lat_slices, p.round_lat_us, 50), "us"},
        {"questions_per_session",
         Ratio(reference_stats.questions, fleet_n), "count"},
        {"rounds_per_session", Ratio(reference_stats.rounds, fleet_n), "count"},
        {"peak_rss_mb", p.peak_rss_mb, "MB"},
        {"rss_per_parked_session_b", p.rss_parked_b, "B"},
    };
  };
  // End-to-end figures that are printed but not gated: on this class of
  // machine they spread wider across seeds than any bound the benchmark
  // may set. The p99 follows the shared disk's fsync tail; recovery time
  // follows the longest session in a seed's log (Recover replays in
  // lockstep passes, one round per session per pass); the first-round
  // latency of the opening waves rests on a few hundred samples. Sessions
  // per second is rounds per second over a seed's rounds per session, both
  // gated, and adds the spread of the second to that of the first.
  auto reported_metrics = [&](const PhaseResult& p) {
    return std::vector<Metric>{
        // Counted as session work done: counting completions alone makes
        // the figure follow when a phase's sessions, all opened together,
        // happen to finish.
        {"sessions_per_s",
         RateMedian(p.session_work_slices, p.session_work, p.window_s), "1/s"},
        {"round_latency_p99_us",
         SliceMedian(p.round_lat_slices, p.round_lat_us, 99), "us"},
        {"recovery_s", p.recovered ? p.recovery_s : std::nan(""), "s"},
        {"first_round_p50_us", p.first_round_us.Percentile(50), "us"},
        {"ops_failed_ratio", Ratio(p.failed, p.attempted), "ratio"},
    };
  };
  auto print_samples = [&](const PhaseResult& p) {
    std::printf("  samples: round latency %zu, first round %zu; "
                "%" PRId64 " sessions opened, %" PRId64 " completed in window, "
                "%d parked at the burst%s\n",
                p.round_lat_us.count(), p.first_round_us.count(),
                p.sessions_opened, p.completed, p.parked_sessions,
                p.peak_reset ? "" : "; peak RSS could not be reset");
    if (!p.pinned) std::printf("  WARNING: CPU pinning failed\n");
    std::printf("  untimed: tail %.2f s, fingerprint check %.2f s\n", p.tail_s,
                p.check_s);
    std::printf("  failed operations: %" PRId64 " of %" PRId64 "\n", p.failed,
                p.attempted);
  };

  // A fresh WAL and router for every phase after the first.
  auto fresh_router = [&](Fs* fs) -> bool {
    router = DurableRouter::Create(fs, wal->dir(), opts, &error);
    if (router == nullptr) std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return router != nullptr;
  };
  auto fresh_wal = [&]() -> bool {
    wal.reset();
    wal = Wal::Make(cfg.real_fs, args.wal_parent, &error);
    if (wal == nullptr) std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return wal != nullptr;
  };

  if (!args.trace) {
    // kRecoverReps recoveries per run, in the last phases.
    auto reps_in = [&](int k) {
      if (phases < kRecoverReps) {
        return (kRecoverReps + phases - 1) / phases;
      }
      return k >= phases - kRecoverReps ? 1 : 0;
    };
    std::vector<std::vector<Metric>> per_phase;
    std::vector<std::vector<Metric>> per_phase_reported;
    for (int k = 0; k < phases; ++k) {
      if (k > 0 && (!fresh_wal() || !fresh_router(wal->fs()))) return 1;
      Phase phase(cfg, args, fleet, reference, reference_rounds, false,
                  args.inject_flip && k == 0);
      PhaseResult p = phase.Run(std::move(router), wal.get(), wal->fs(),
                                nullptr, opts, args.seconds / phases,
                                reps_in(k));
      fold(p);
      per_phase.push_back(e2e_metrics(p));
      per_phase_reported.push_back(reported_metrics(p));
      std::printf("\nphase %d of %d\n", k + 1, phases);
      print_samples(p);
    }
    metrics = MedianMetrics(per_phase);
    const char* how = phases > 1 ? ", median of phases" : "";
    PrintMetrics((std::string("end-to-end, gated (untraced") + how + ")").c_str(),
                 metrics);
    PrintMetrics((std::string("end-to-end, reported only (untraced") + how + ")")
                     .c_str(),
                 MedianMetrics(per_phase_reported));
  } else {
    // Three phases of a third of the time each: an untraced warm-up (a
    // process's first phase runs on a cold heap and is slower), the traced
    // phase, and an untraced phase the tracing overhead is measured against.
    const double third = args.seconds / 3;
    {
      Phase warm(cfg, args, fleet, reference, reference_rounds, false,
                 args.inject_flip);
      fold(warm.Run(std::move(router), wal.get(), wal->fs(), nullptr, opts,
                    third, /*recover_reps=*/0));
    }
    if (!fresh_wal()) return 1;
    PhaseResult p;
    {
      TracingFs tfs(wal->fs());
      if (!fresh_router(&tfs)) return 1;
      Phase traced(cfg, args, fleet, reference, reference_rounds, true, false);
      p = traced.Run(std::move(router), wal.get(), &tfs, &tfs, opts, third,
                     /*recover_reps=*/1);
    }
    fold(p);
    if (!fresh_wal() || !fresh_router(wal->fs())) return 1;
    Phase untraced(cfg, args, fleet, reference, reference_rounds, false,
                   false);
    const PhaseResult base = untraced.Run(std::move(router), wal.get(),
                                          wal->fs(), nullptr, opts, third,
                                          /*recover_reps=*/0);
    fold(base);
    t0 = NowNs();
    const SyncPass sync = RunSyncPass(fleet);
    std::printf("traced sync pass %.2f s\n",
                static_cast<double>(NowNs() - t0) / 1e9);

    PrintMetrics("end-to-end, traced phase", e2e_metrics(p));
    PrintMetrics("", reported_metrics(p));
    print_samples(p);
    PrintMetrics("end-to-end, untraced phase", e2e_metrics(base));
    print_samples(base);

    const double rounds = std::max<double>(1, static_cast<double>(p.rounds));
    const double wall = p.window_s;
    const double self_us_per_round =
        Ratio(sync.self_s() * 1e6, static_cast<double>(sync.rounds));
    const double learner_s = self_us_per_round * rounds / 1e6;
    int64_t service_ns = 0;
    for (Cat c : {kOpen, kProvide, kPoll, kClose}) service_ns += p.split_ns[c];
    // Service time per round that neither the learners' own compute nor the
    // filesystem explains: lane CPU beyond the learners, plus the driver's
    // time inside working service calls beyond the Fs time they contain.
    const double lane_cpu_s = p.proc.cpu_s() - p.driver.cpu_s();
    const double overhead_s = (lane_cpu_s - learner_s) +
                              static_cast<double>(service_ns - p.fs_ns) / 1e9;
    const double nproc = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    const ServiceStats& fs = p.final_stats;
    const ServiceStats& ps = p.parked_stats;
    const double live_rounds_total = static_cast<double>(fs.rounds);

    metrics = {
        {"e2e.sessions_per_s",
         RateMedian(p.session_work_slices, p.session_work, p.window_s), "1/s"},
        {"e2e.round_latency_p99_us",
         SliceMedian(p.round_lat_slices, p.round_lat_us, 99), "us"},
        {"e2e.recovery_s", p.recovery_s, "s"},
        {"e2e.first_round_p50_us", p.first_round_us.Percentile(50), "us"},
        {"durable.append_us_p50", p.append_us.Percentile(50), "us"},
        {"durable.append_us_p99", p.append_us.Percentile(99), "us"},
        {"durable.append_bytes_per_round",
         Ratio(static_cast<double>(p.append_bytes), rounds), "B"},
        {"durable.sync_us_p50", p.sync_us.Percentile(50), "us"},
        {"durable.sync_us_p99", p.sync_us.Percentile(99), "us"},
        {"durable.syncs_per_round",
         Ratio(static_cast<double>(p.sync_us.count()), rounds), "count"},
        {"durable.recover_read_s", p.recover_read_s, "s"},
        {"durable.recover_replay_s", p.recovery_s - p.recover_read_s, "s"},
        {"session.open_us_p50", p.open_us.Percentile(50), "us"},
        {"session.open_us_p99", p.open_us.Percentile(99), "us"},
        {"session.open_self_us_p50", p.open_self_us.Percentile(50), "us"},
        {"session.provide_us_p50", p.provide_us.Percentile(50), "us"},
        {"session.provide_us_p99", p.provide_us.Percentile(99), "us"},
        {"session.provide_self_us_p50", p.provide_self_us.Percentile(50), "us"},
        {"session.poll_us_p50", p.poll_us.Percentile(50), "us"},
        {"session.poll_us_p99", p.poll_us.Percentile(99), "us"},
        {"session.rounds_per_poll",
         Ratio(static_cast<double>(p.rounds_polled), static_cast<double>(p.polls)),
         "count"},
        {"session.close_us_p50", p.close_us.Percentile(50), "us"},
        {"session.suspensions_per_round",
         Ratio(static_cast<double>(fs.suspensions), live_rounds_total), "count"},
        {"session.replayed_questions", static_cast<double>(fs.replayed_questions),
         "count"},
        {"session.parked_bytes_per_session",
         Ratio(static_cast<double>(ps.snapshot_bytes),
               static_cast<double>(ps.awaiting_sessions)),
         "B"},
        {"session.overhead_us_per_round", overhead_s * 1e6 / rounds, "us"},
        {"util.lane_parallelism", Ratio(learner_s, wall), "ratio"},
        {"util.cpu_util", Ratio(p.proc.cpu_s(), wall * nproc), "ratio"},
        {"util.sys_share", Ratio(p.proc.sys_s, p.proc.cpu_s()), "ratio"},
        {"util.ctx_switches_per_round",
         static_cast<double>(p.proc.ctx_switches) / rounds, "count"},
        {"learn.learn_self_s", sync.learn_self_s, "s"},
        {"learn.revise_self_s", sync.revise_self_s, "s"},
        {"verify.verify_self_s", sync.verify_self_s, "s"},
        {"learn.self_us_per_round", self_us_per_round, "us"},
        {"oracle.round_width_p50", p.user.widths.Percentile(50), "count"},
        {"oracle.round_width_p99", p.user.widths.Percentile(99), "count"},
        {"oracle.round_width_max", p.user.widths.Max(), "count"},
        {"oracle.rounds_ge_512_share",
         p.user.widths.ShareAtLeast(
             static_cast<double>(CompiledQuery::kParallelRoundCutover)),
         "ratio"},
        {"oracle.cache_hit_ratio",
         Ratio(static_cast<double>(fs.cache_hits),
               static_cast<double>(fs.cache_hits + fs.questions)),
         "ratio"},
        {"workload.user_eval_us_per_round",
         static_cast<double>(p.user.eval_ns) / 1e3 / rounds, "us"},
        {"workload.driver_busy_share",
         1.0 - Ratio(static_cast<double>(p.split_ns[kWait]) / 1e9, wall),
         "ratio"},
        {"workload.driver_lag_p99_us", p.lag_us.Percentile(99), "us"},
    };

    // The driver thread's wall time, split by where it went.
    std::printf("\ndriver thread wall time, traced window %.3f s\n", wall);
    double attributed = 0;
    for (int c = 0; c < kCats; ++c) {
      double s = static_cast<double>(p.split_ns[c]) / 1e9;
      attributed += s;
      std::printf("  %-36s %8.4f s %6.2f%%\n", kCatNames[c], s,
                  100.0 * Ratio(s, wall));
    }
    const double unattributed = wall - attributed;
    std::printf("  %-36s %8.4f s %6.2f%%\n", "unattributed", unattributed,
                100.0 * Ratio(unattributed, wall));
    const double base_rps = Ratio(base.rounds, base.window_s);
    const double traced_rps = Ratio(p.rounds, p.window_s);
    const double overhead_pct = 100.0 * (Ratio(base_rps, traced_rps) - 1.0);
    std::printf("tracing overhead: rounds/s untraced %.1f, traced %.1f "
                "(%+.2f%%)\n",
                base_rps, traced_rps, overhead_pct);
    metrics.push_back({"workload.driver_unattributed_share",
                       Ratio(unattributed, wall), "ratio"});
    metrics.push_back({"trace.overhead_pct", overhead_pct, "%"});
    PrintMetrics("per-layer (traced phase)", metrics);
  }

  const bool correct = failed == 0;
  if (!correct) {
    std::printf("\nCORRECTNESS FAILURE: %s\n", failure.c_str());
  }
  PrintJson(correct, std::max<int64_t>(1, attempted), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
