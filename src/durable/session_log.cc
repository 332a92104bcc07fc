#include "src/durable/session_log.h"

#include <sstream>
#include <utility>

#include "src/durable/codec.h"
#include "src/util/crc32c.h"

namespace qhorn {

namespace {

// "qhLG" little-endian, followed by the format version. Bumping the
// version makes old readers reject new logs loudly (kBadHeader) instead of
// misdecoding them.
constexpr uint32_t kLogMagic = 0x474c6871;
constexpr uint32_t kLogVersion = 1;
constexpr uint64_t kFrameHeaderSize = 8;  // u32 len + u32 masked crc
// Frames are small (a SessionSpec is hundreds of bytes, a round is a few
// dozen); a length beyond this bound is corruption, not a big record, and
// refusing it keeps a flipped length bit from driving a huge allocation.
constexpr uint32_t kMaxPayload = 1u << 24;

std::string HeaderBytes() {
  std::string header;
  Encoder e(&header);
  e.PutU32(kLogMagic);
  e.PutU32(kLogVersion);
  return header;
}

void EncodeRecordPayload(const LogRecord& rec, std::string* out) {
  Encoder e(out);
  e.PutU8(static_cast<uint8_t>(rec.type));
  e.PutI64(rec.session_id);
  switch (rec.type) {
    case LogRecordType::kSessionOpened:
      EncodeSessionSpec(rec.spec, out);
      break;
    case LogRecordType::kRoundAnswered: {
      e.PutI64(rec.round_id);
      e.PutU32(static_cast<uint32_t>(rec.answers.size()));
      uint8_t byte = 0;
      for (size_t i = 0; i < rec.answers.size(); ++i) {
        if (rec.answers[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
        if (i % 8 == 7) {
          e.PutU8(byte);
          byte = 0;
        }
      }
      if (rec.answers.size() % 8 != 0) e.PutU8(byte);
      break;
    }
    case LogRecordType::kSessionClosed:
      break;
  }
}

bool DecodeRecordPayload(std::string_view payload, LogRecord* out) {
  Decoder in(payload);
  uint8_t type;
  if (!in.GetU8(&type)) return false;
  if (type < static_cast<uint8_t>(LogRecordType::kSessionOpened) ||
      type > static_cast<uint8_t>(LogRecordType::kSessionClosed)) {
    return false;
  }
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(type);
  if (!in.GetI64(&rec.session_id)) return false;
  switch (rec.type) {
    case LogRecordType::kSessionOpened:
      if (!DecodeSessionSpec(in, &rec.spec)) return false;
      break;
    case LogRecordType::kRoundAnswered: {
      uint32_t count;
      if (!in.GetI64(&rec.round_id) || !in.GetU32(&count)) return false;
      if (in.remaining() < (count + 7) / 8) return false;
      rec.answers.resize(count);
      uint8_t byte = 0;
      for (uint32_t i = 0; i < count; ++i) {
        if (i % 8 == 0 && !in.GetU8(&byte)) return false;
        rec.answers[i] = (byte >> (i % 8)) & 1;
      }
      break;
    }
    case LogRecordType::kSessionClosed:
      break;
  }
  if (!in.empty()) return false;  // trailing garbage inside a valid CRC
  *out = std::move(rec);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionLog (append side)

SessionLog::SessionLog(std::unique_ptr<WritableFile> file, std::string path)
    : file_(std::move(file)), path_(std::move(path)) {}

std::unique_ptr<SessionLog> SessionLog::Open(Fs* fs, const std::string& path,
                                             std::string* error) {
  bool needs_header = true;
  if (fs->FileExists(path)) {
    std::string contents;
    if (!fs->ReadFile(path, &contents)) {
      *error = "cannot read existing log " + path;
      return nullptr;
    }
    if (!contents.empty()) {
      if (contents.size() < kHeaderSize) {
        *error = "log " + path + " has a torn header; recover it first";
        return nullptr;
      }
      Decoder in(std::string_view(contents).substr(0, kHeaderSize));
      uint32_t magic = 0, version = 0;
      in.GetU32(&magic);
      in.GetU32(&version);
      if (magic != kLogMagic || version != kLogVersion) {
        std::ostringstream os;
        os << "log " << path << " has foreign header (magic=" << std::hex
           << magic << " version=" << std::dec << version << ")";
        *error = os.str();
        return nullptr;
      }
      needs_header = false;
    }
  }
  auto file = fs->OpenAppend(path);
  if (file == nullptr) {
    *error = "cannot open " + path + " for append";
    return nullptr;
  }
  auto log = std::unique_ptr<SessionLog>(
      new SessionLog(std::move(file), path));
  if (needs_header) {
    // The header is synced unconditionally: a crash between creation and
    // the first record must leave a recognizable (empty) log, not a
    // zero-byte file that reads as torn.
    if (!log->file_->Append(HeaderBytes())) {
      *error = "cannot write header of " + path;
      return nullptr;
    }
    if (!log->file_->Sync()) {
      *error = "cannot sync header of " + path;
      return nullptr;
    }
  }
  return log;
}

bool SessionLog::AppendRecord(std::string_view payload) {
  MutexLock lock(&mutex_);
  if (poisoned_) return false;
  std::string frame;
  Encoder e(&frame);
  e.PutU32(static_cast<uint32_t>(payload.size()));
  e.PutU32(MaskCrc32c(Crc32c(payload)));
  frame.append(payload);
  if (!file_->Append(frame)) {
    // The tail is indeterminate — a prefix of the frame may be on disk.
    // Appending anything more would interleave with garbage, so the
    // handle is done; only recovery (read, truncate, reopen) continues.
    poisoned_ = true;
    return false;
  }
  ++records_;
  if (!file_->Sync()) {
    // Not poisoned: the frame is buffered whole. The caller must not
    // acknowledge, but may retry with a fresh append of the same record
    // — recovery treats the resulting duplicate as a no-op.
    return false;
  }
  ++syncs_;
  return true;
}

bool SessionLog::AppendSessionOpened(int64_t session_id,
                                     const SessionSpec& spec) {
  LogRecord rec;
  rec.type = LogRecordType::kSessionOpened;
  rec.session_id = session_id;
  rec.spec = spec;
  std::string payload;
  EncodeRecordPayload(rec, &payload);
  return AppendRecord(payload);
}

bool SessionLog::AppendRoundAnswered(int64_t session_id, int64_t round_id,
                                     BitSpan answers) {
  LogRecord rec;
  rec.type = LogRecordType::kRoundAnswered;
  rec.session_id = session_id;
  rec.round_id = round_id;
  rec.answers.resize(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) rec.answers[i] = answers.Get(i);
  std::string payload;
  EncodeRecordPayload(rec, &payload);
  return AppendRecord(payload);
}

bool SessionLog::AppendSessionClosed(int64_t session_id) {
  LogRecord rec;
  rec.type = LogRecordType::kSessionClosed;
  rec.session_id = session_id;
  std::string payload;
  EncodeRecordPayload(rec, &payload);
  return AppendRecord(payload);
}

bool SessionLog::poisoned() const {
  MutexLock lock(&mutex_);
  return poisoned_;
}

int64_t SessionLog::records_appended() const {
  MutexLock lock(&mutex_);
  return records_;
}

int64_t SessionLog::syncs() const {
  MutexLock lock(&mutex_);
  return syncs_;
}

// ---------------------------------------------------------------------------
// ReadLog (scan side)

const char* ToString(LogReadStatus s) {
  switch (s) {
    case LogReadStatus::kOk:
      return "ok";
    case LogReadStatus::kBadHeader:
      return "bad-header";
    case LogReadStatus::kCorruptRecord:
      return "corrupt-record";
    case LogReadStatus::kBadRecord:
      return "bad-record";
  }
  return "?";
}

LogReadResult ReadLog(Fs* fs, const std::string& path) {
  LogReadResult result;
  if (!fs->FileExists(path)) return result;
  result.existed = true;
  std::string contents;
  if (!fs->ReadFile(path, &contents)) {
    result.status = LogReadStatus::kBadHeader;
    result.error = "cannot read " + path;
    return result;
  }
  if (contents.size() < SessionLog::kHeaderSize) {
    // A header prefix is a torn first write, not a foreign file: keep the
    // torn-tail contract (truncate to zero, reopen rewrites the header).
    result.torn_tail = !contents.empty();
    result.dropped_bytes = contents.size();
    if (result.torn_tail) {
      result.error = "torn header (" + std::to_string(contents.size()) +
                     " of 8 bytes) in " + path;
    }
    return result;
  }
  {
    Decoder in(std::string_view(contents).substr(0, SessionLog::kHeaderSize));
    uint32_t magic = 0, version = 0;
    in.GetU32(&magic);
    in.GetU32(&version);
    if (magic != kLogMagic || version != kLogVersion) {
      result.status = LogReadStatus::kBadHeader;
      std::ostringstream os;
      os << "foreign header in " << path << " (magic=" << std::hex << magic
         << " version=" << std::dec << version << ")";
      result.error = os.str();
      return result;
    }
  }

  uint64_t offset = SessionLog::kHeaderSize;
  result.valid_bytes = offset;
  std::string_view data(contents);
  while (offset < data.size()) {
    // Anything short of a complete frame is a torn tail: a crashed append
    // leaves a prefix of a valid frame, so "not enough bytes" is the
    // expected post-crash shape and is truncated loudly, never decoded.
    if (data.size() - offset < kFrameHeaderSize) break;
    Decoder fh(data.substr(offset, kFrameHeaderSize));
    uint32_t len = 0, masked_crc = 0;
    fh.GetU32(&len);
    fh.GetU32(&masked_crc);
    if (len > kMaxPayload) {
      result.status = LogReadStatus::kCorruptRecord;
      std::ostringstream os;
      os << "frame at offset " << offset << " of " << path
         << " claims implausible length " << len;
      result.error = os.str();
      return result;
    }
    if (data.size() - offset - kFrameHeaderSize < len) break;  // torn tail
    std::string_view payload = data.substr(offset + kFrameHeaderSize, len);
    if (MaskCrc32c(Crc32c(payload)) != masked_crc) {
      // The frame is *complete* — this is bit rot or a torn middle, not a
      // torn tail. Replaying around it would acknowledge-then-forget, so
      // the whole log is rejected.
      result.status = LogReadStatus::kCorruptRecord;
      std::ostringstream os;
      os << "CRC mismatch in frame at offset " << offset << " of " << path
         << " (record " << result.records.size() << ")";
      result.error = os.str();
      return result;
    }
    LogRecord rec;
    if (!DecodeRecordPayload(payload, &rec)) {
      result.status = LogReadStatus::kBadRecord;
      std::ostringstream os;
      os << "CRC-valid frame at offset " << offset << " of " << path
         << " does not decode (record " << result.records.size() << ")";
      result.error = os.str();
      return result;
    }
    result.records.push_back(std::move(rec));
    offset += kFrameHeaderSize + len;
    result.valid_bytes = offset;
  }
  if (offset < data.size()) {
    result.torn_tail = true;
    result.dropped_bytes = data.size() - offset;
    std::ostringstream os;
    os << "torn tail: " << result.dropped_bytes << " byte(s) past offset "
       << offset << " of " << path;
    result.error = os.str();
  }
  return result;
}

}  // namespace qhorn
