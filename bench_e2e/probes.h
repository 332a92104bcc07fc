// Measurement probes for the end-to-end session benchmark.
//
// Every probe sits *outside* the program under test: it wraps one of the
// two public seams the service already has (the durable log's Fs /
// WritableFile, and the MembershipOracle a user answers through), or it
// reads process counters the kernel keeps anyway (getrusage, /proc). No
// file under src/ is instrumented, so an untraced run executes exactly the
// production code path.

#ifndef QHORN_BENCH_E2E_PROBES_H_
#define QHORN_BENCH_E2E_PROBES_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/durable/fs.h"
#include "src/oracle/oracle.h"

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A distribution kept as raw samples; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> copy = values_;
    size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(copy.size()));
    rank = std::min(rank, copy.size() - 1);
    std::nth_element(copy.begin(), copy.begin() + static_cast<ptrdiff_t>(rank),
                     copy.end());
    return copy[rank];
  }
  double Max() const {
    return values_.empty() ? 0.0
                           : *std::max_element(values_.begin(), values_.end());
  }
  double ShareAtLeast(double threshold) const {
    if (values_.empty()) return 0.0;
    size_t n = 0;
    for (double v : values_) n += v >= threshold ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

/// Nanoseconds the calling thread has spent inside TracingFs since it
/// started; a driver-side timer subtracts the delta across one service
/// call to get that call's self time.
inline thread_local int64_t t_fs_ns = 0;

/// Timing decorator over the durable log's filesystem seam. Appends and
/// syncs are sampled only while `recording` is set (the measured phase);
/// ReadFile time is always summed (recovery's read share).
class TracingFs : public qhorn::Fs {
 public:
  explicit TracingFs(qhorn::Fs* base) : base_(base) {}

  std::unique_ptr<qhorn::WritableFile> OpenAppend(
      const std::string& path) override {
    std::unique_ptr<qhorn::WritableFile> file = base_->OpenAppend(path);
    if (file == nullptr) return nullptr;
    return std::make_unique<File>(std::move(file), this);
  }
  bool ReadFile(const std::string& path, std::string* out) override {
    int64_t t0 = NowNs();
    bool ok = base_->ReadFile(path, out);
    int64_t dt = NowNs() - t0;
    t_fs_ns += dt;
    std::lock_guard<std::mutex> lock(mutex_);
    read_ns_ += dt;
    return ok;
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  bool Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  bool CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }

  void set_recording(bool on) {
    std::lock_guard<std::mutex> lock(mutex_);
    recording_ = on;
  }

  // Read after the traced phase, once no call is in flight.
  const Samples& append_us() const { return append_us_; }
  const Samples& sync_us() const { return sync_us_; }
  int64_t append_bytes() const { return append_bytes_; }
  int64_t fs_ns() const { return fs_ns_; }
  int64_t read_ns() const { return read_ns_; }

 private:
  class File : public qhorn::WritableFile {
   public:
    File(std::unique_ptr<qhorn::WritableFile> base, TracingFs* owner)
        : base_(std::move(base)), owner_(owner) {}
    bool Append(std::string_view data) override {
      int64_t t0 = NowNs();
      bool ok = base_->Append(data);
      owner_->Record(/*sync=*/false, NowNs() - t0, data.size());
      return ok;
    }
    bool Sync() override {
      int64_t t0 = NowNs();
      bool ok = base_->Sync();
      owner_->Record(/*sync=*/true, NowNs() - t0, 0);
      return ok;
    }

   private:
    std::unique_ptr<qhorn::WritableFile> base_;
    TracingFs* owner_;
  };

  void Record(bool sync, int64_t ns, size_t bytes) {
    t_fs_ns += ns;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!recording_) return;
    fs_ns_ += ns;
    if (sync) {
      sync_us_.Add(static_cast<double>(ns) / 1e3);
    } else {
      append_us_.Add(static_cast<double>(ns) / 1e3);
      append_bytes_ += static_cast<int64_t>(bytes);
    }
  }

  qhorn::Fs* base_;
  std::mutex mutex_;
  bool recording_ = false;
  Samples append_us_;
  Samples sync_us_;
  int64_t append_bytes_ = 0;
  int64_t fs_ns_ = 0;
  int64_t read_ns_ = 0;
};

/// What the user-boundary decorators of one phase measured together.
struct UserProbe {
  bool timed = false;
  int64_t eval_ns = 0;   ///< time inside the simulated users
  Samples widths;        ///< questions per user round
};

/// The user boundary: every answer a simulated user gives passes through
/// here. It times the user (so the driver's and the learners' own time can
/// be separated from it), records round widths, and can flip one answer
/// bit — the self-test's proof that the fingerprint check bites.
class UserBoundary : public qhorn::MembershipOracle {
 public:
  UserBoundary(qhorn::MembershipOracle* inner, UserProbe* probe)
      : inner_(inner), probe_(probe) {}

  /// Inverts answer 0 of this user's `round`-th round (0-based).
  void ArmFlip(int64_t round) { flip_round_ = round; }

  bool IsAnswer(const qhorn::TupleSet& question) override {
    int64_t t0 = probe_->timed ? NowNs() : 0;
    bool answer = inner_->IsAnswer(question);
    if (rounds_ == flip_round_) answer = !answer;
    Finish(t0, 1);
    return answer;
  }

  void IsAnswerBatch(std::span<const qhorn::TupleSet> questions,
                     qhorn::BitSpan answers) override {
    int64_t t0 = probe_->timed ? NowNs() : 0;
    inner_->IsAnswerBatch(questions, answers);
    if (rounds_ == flip_round_ && !answers.empty()) {
      answers.Set(0, !answers.Get(0));
    }
    Finish(t0, questions.size());
  }

 private:
  void Finish(int64_t t0, size_t width) {
    ++rounds_;
    if (!probe_->timed) return;
    probe_->eval_ns += NowNs() - t0;
    probe_->widths.Add(static_cast<double>(width));
  }

  qhorn::MembershipOracle* inner_;
  UserProbe* probe_;
  int64_t rounds_ = 0;
  int64_t flip_round_ = -1;
};

/// Process-wide (all threads) or calling-thread resource usage.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t ctx_switches = 0;

  static Usage Read(int who) {
    struct rusage ru {};
    getrusage(who, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
  }
  Usage operator-(const Usage& o) const {
    return Usage{user_s - o.user_s, sys_s - o.sys_s,
                 ctx_switches - o.ctx_switches};
  }
  double cpu_s() const { return user_s + sys_s; }
};

/// Resident set size of this process, bytes.
int64_t RssBytes();

/// Clears the kernel's peak-RSS mark so VmHWM covers only what follows.
/// False where /proc/self/clear_refs is unavailable.
bool ResetPeakRss();

/// Peak resident set size (VmHWM), bytes.
int64_t PeakRssBytes();

/// Pins the calling (driver) thread to CPU 0 and every other thread of the
/// process to the remaining CPUs, so the single driver and the service's
/// lanes never take each other's core. A no-op on a single-CPU machine.
/// Returns false if any affinity call failed.
bool PinDriverApart();

/// Pins the calling thread to CPU `cpu` modulo the CPU count.
void PinToCpu(int cpu);

/// Lets the calling thread run on every CPU again (threads it creates
/// afterwards inherit that).
void UnpinDriver();

/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
std::string FsTypeName(const std::string& path);

/// "model name" of the first CPU in /proc/cpuinfo.
std::string CpuModel();

/// `uname -sr`.
std::string KernelName();

}  // namespace e2e

#endif  // QHORN_BENCH_E2E_PROBES_H_
