// Append-only, CRC-framed session log — the durability substrate of
// DurableRouter (durable_router.h).
//
// One log file is one *shard*: an 8-byte header (magic + version) followed
// by length-prefixed frames
//
//   [u32 payload_len][u32 masked_crc32c(payload)][payload]
//   payload = [u8 record_type][record body, codec.h encoding]
//
// Three record types cover the whole pending-session protocol:
//
//   SessionOpened  {session_id, SessionSpec} — everything needed to
//                  re-create the session (target/mutant queries, noise
//                  seed, job plan);
//   RoundAnswered  {session_id, round_id, answer bits} — one accepted
//                  ProvideAnswers call;
//   SessionClosed  {session_id}.
//
// Sessions are deterministic functions of (spec, answer sequence), so this
// *is* the whole state: replaying a shard's records through a fresh router
// reproduces every transcript bit for bit — there are no checkpoint
// records and no state snapshots to keep consistent.
//
// Failure taxonomy, which ReadLog distinguishes loudly rather than
// papering over:
//
//   * torn tail   — the final frame is incomplete (power loss mid-append).
//     Expected after any crash; ReadLog reports the valid prefix length so
//     recovery can truncate, and keeps every complete record.
//   * corruption  — a *complete* frame whose CRC does not match (bit rot,
//     torn middle, alien bytes). Never silently skipped: the log is
//     rejected with a typed error, because a missing middle record means
//     the replay suffix would diverge from what was acknowledged.
//   * bad record  — CRC-valid frame whose payload does not decode (foreign
//     or future record type). Also a typed rejection: the CRC says the
//     bytes are what was written, so the *writer* was wrong, and guessing
//     is worse than stopping.

#ifndef QHORN_DURABLE_SESSION_LOG_H_
#define QHORN_DURABLE_SESSION_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/durable/fs.h"
#include "src/util/bit_span.h"
#include "src/util/checked_mutex.h"
#include "src/workload/workload.h"

namespace qhorn {

enum class LogRecordType : uint8_t {
  kSessionOpened = 1,
  kRoundAnswered = 2,
  kSessionClosed = 3,
};

/// One decoded log record (tagged union, `type` selects the live fields).
struct LogRecord {
  LogRecordType type = LogRecordType::kSessionOpened;
  int64_t session_id = 0;
  SessionSpec spec;            // kSessionOpened
  int64_t round_id = 0;        // kRoundAnswered
  std::vector<bool> answers;   // kRoundAnswered
};

/// When appended records become durable: after every record, so an
/// acknowledged call survives any crash (log-before-ack). It is the only
/// policy, and nothing reads it. Kept only because the frozen end-to-end
/// benchmark (bench_e2e/e2e_bench.cc) assigns
/// DurableRouterOptions::log.fsync_policy; the next change to that
/// benchmark drops this enum and SessionLogOptions.
enum class FsyncPolicy {
  kEveryAppend,  ///< sync after every record
};

/// Unread; see FsyncPolicy.
struct SessionLogOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryAppend;
};

/// Append side of one shard. Thread-safe (appends serialize internally;
/// DurableRouter's commit hooks call in from executor lanes).
class SessionLog {
 public:
  /// Opens `path` for appending, creating it (and writing the header,
  /// synced) if absent or empty. The caller is responsible for having
  /// validated/truncated an existing file first (Recover does); Open never
  /// reads back more than the header. Returns nullptr with `*error` set on
  /// I/O failure or a foreign header.
  static std::unique_ptr<SessionLog> Open(Fs* fs, const std::string& path,
                                          std::string* error);

  /// Appends one record; true iff the record is written and synced. A
  /// false return distinguishes two caller-visible states via poisoned():
  /// a failed *write* poisons the log (the tail is indeterminate, every
  /// later append is refused), while a failed *sync* leaves the record
  /// buffered and whole — the caller may retry by appending the record
  /// again (recovery skips the duplicate).
  bool AppendSessionOpened(int64_t session_id, const SessionSpec& spec);
  bool AppendRoundAnswered(int64_t session_id, int64_t round_id,
                           BitSpan answers);
  bool AppendSessionClosed(int64_t session_id);

  /// True once an append failed at the write (not sync) stage: the file
  /// tail is indeterminate and this handle refuses all further appends.
  /// The only way forward is crash-style recovery (re-read + truncate).
  bool poisoned() const;

  int64_t records_appended() const;
  int64_t syncs() const;

  const std::string& path() const { return path_; }

  /// Size of the log header, and the first byte offset of frame data.
  static constexpr uint64_t kHeaderSize = 8;

 private:
  SessionLog(std::unique_ptr<WritableFile> file, std::string path);

  bool AppendRecord(std::string_view payload);

  std::unique_ptr<WritableFile> file_;
  std::string path_;

  // Held across the file Append/Sync (LockRank::kWalShard < kFaultFs/kFs:
  // the filesystem locks nest inside). Acquired from DurableRouter commit
  // hooks, which hold exactly one router-shard mutex (kRouterShard) above.
  mutable Mutex mutex_{"wal-shard", LockRank::kWalShard};
  bool poisoned_ QHORN_GUARDED_BY(mutex_) = false;
  int64_t records_ QHORN_GUARDED_BY(mutex_) = 0;
  int64_t syncs_ QHORN_GUARDED_BY(mutex_) = 0;
};

enum class LogReadStatus {
  kOk,             ///< every complete frame decoded (torn tail possible)
  kBadHeader,      ///< header complete but wrong magic/version
  kCorruptRecord,  ///< a complete frame failed its CRC — log rejected
  kBadRecord,      ///< a CRC-valid frame failed to decode — log rejected
};

const char* ToString(LogReadStatus s);

/// Result of scanning one shard file.
struct LogReadResult {
  LogReadStatus status = LogReadStatus::kOk;
  bool existed = false;  ///< false: no such file (status stays kOk, empty)
  std::vector<LogRecord> records;
  /// Header + every complete valid frame. On kOk with a torn tail this is
  /// the truncation point; on a typed rejection it marks where the bad
  /// frame starts (diagnostic only — a rejected log must not be replayed).
  uint64_t valid_bytes = 0;
  uint64_t dropped_bytes = 0;  ///< torn-tail bytes past valid_bytes
  bool torn_tail = false;
  std::string error;  ///< human-readable detail for any non-clean outcome
};

/// Scans a shard: validates the header, CRC-checks and decodes every
/// frame. Pure read — never truncates or repairs (Recover owns that).
LogReadResult ReadLog(Fs* fs, const std::string& path);

}  // namespace qhorn

#endif  // QHORN_DURABLE_SESSION_LOG_H_
