#include "server/session_journal.h"

#include <algorithm>
#include <utility>

namespace smn {
namespace server {
namespace {

constexpr char kFilePrefix[] = "session-";
constexpr char kFileSuffix[] = ".wal";
constexpr size_t kIdDigits = 12;

void AppendKind(std::string* out, JournalRecordKind kind) {
  AppendU32(out, static_cast<uint32_t>(kind));
}

}  // namespace

std::string EncodeOpenRecord(uint64_t session_id, uint64_t tenant_id,
                             uint64_t seed) {
  std::string payload;
  AppendKind(&payload, JournalRecordKind::kOpen);
  AppendU64(&payload, session_id);
  AppendU64(&payload, tenant_id);
  AppendU64(&payload, seed);
  AppendU64(&payload, 0);  // Reserved.
  return payload;
}

std::string EncodeAssertRecord(CorrespondenceId c, bool approved,
                               uint64_t revision) {
  std::string payload;
  AppendKind(&payload, JournalRecordKind::kAssert);
  AppendU32(&payload, c);
  AppendU32(&payload, approved ? 1 : 0);
  AppendU64(&payload, revision);
  return payload;
}

std::string EncodeAssertSoftRecord(CorrespondenceId c, bool approved,
                                   double error_rate, uint64_t soft_count) {
  std::string payload;
  AppendKind(&payload, JournalRecordKind::kAssertSoft);
  AppendU32(&payload, c);
  AppendU32(&payload, approved ? 1 : 0);
  AppendF64(&payload, error_rate);
  AppendU64(&payload, soft_count);
  return payload;
}

std::string EncodeCloseRecord() {
  std::string payload;
  AppendKind(&payload, JournalRecordKind::kClose);
  return payload;
}

StatusOr<JournalRecord> DecodeJournalRecord(std::string_view payload) {
  std::string_view rest = payload;
  uint32_t kind = 0;
  if (!ReadU32(&rest, &kind)) {
    return Status::DataLoss("journal record: payload too short for a kind");
  }
  JournalRecord record;
  uint32_t approved = 0;
  uint64_t reserved = 0;
  switch (static_cast<JournalRecordKind>(kind)) {
    case JournalRecordKind::kOpen:
      record.kind = JournalRecordKind::kOpen;
      if (!ReadU64(&rest, &record.session_id) ||
          !ReadU64(&rest, &record.tenant_id) ||
          !ReadU64(&rest, &record.seed) || !ReadU64(&rest, &reserved)) {
        return Status::DataLoss("journal record: truncated Open record");
      }
      break;
    case JournalRecordKind::kAssert:
      record.kind = JournalRecordKind::kAssert;
      if (!ReadU32(&rest, &record.correspondence) ||
          !ReadU32(&rest, &approved) || !ReadU64(&rest, &record.stamp)) {
        return Status::DataLoss("journal record: truncated Assert record");
      }
      record.approved = approved != 0;
      break;
    case JournalRecordKind::kAssertSoft:
      record.kind = JournalRecordKind::kAssertSoft;
      if (!ReadU32(&rest, &record.correspondence) ||
          !ReadU32(&rest, &approved) || !ReadF64(&rest, &record.error_rate) ||
          !ReadU64(&rest, &record.stamp)) {
        return Status::DataLoss("journal record: truncated AssertSoft record");
      }
      record.approved = approved != 0;
      break;
    case JournalRecordKind::kClose:
      record.kind = JournalRecordKind::kClose;
      break;
    default:
      return Status::DataLoss("journal record: unknown kind " +
                              std::to_string(kind));
  }
  if (!rest.empty()) {
    return Status::DataLoss("journal record: " + std::to_string(rest.size()) +
                            " trailing bytes after a valid record body");
  }
  return record;
}

std::string JournalFilePath(const std::string& dir, uint64_t session_id) {
  std::string digits = std::to_string(session_id);
  if (digits.size() < kIdDigits) {
    digits.insert(0, kIdDigits - digits.size(), '0');
  }
  return dir + "/" + kFilePrefix + digits + kFileSuffix;
}

StatusOr<std::vector<uint64_t>> ListJournalSessions(const std::string& dir) {
  SMN_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDirectory(dir));
  const std::string_view prefix = kFilePrefix;
  const std::string_view suffix = kFileSuffix;
  std::vector<uint64_t> ids;
  for (const std::string& name : names) {
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    uint64_t id = 0;
    bool numeric = !digits.empty();
    for (const char ch : digits) {
      if (ch < '0' || ch > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(ch - '0');
    }
    if (numeric) ids.push_back(id);
  }
  // ListDirectory sorts names and ids are fixed-width, so ids arrive sorted;
  // keep the explicit guarantee anyway (a hand-renamed file must not break
  // the recovery order).
  std::sort(ids.begin(), ids.end());
  return ids;
}

SessionLog::SessionLog(const JournalOptions& options, std::string path)
    : options_(options), path_(std::move(path)) {}

StatusOr<std::unique_ptr<SessionLog>> SessionLog::Create(
    const JournalOptions& options, uint64_t session_id, uint64_t tenant_id,
    uint64_t seed, uint64_t /*ignored*/) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("SessionLog: journal dir must be set");
  }
  SMN_RETURN_IF_ERROR(EnsureDirectory(options.dir));
  auto log = std::unique_ptr<SessionLog>(
      new SessionLog(options, JournalFilePath(options.dir, session_id)));
  SMN_ASSIGN_OR_RETURN(RecordWriter writer,
                       RecordWriter::Open(log->path_, /*truncate=*/true));
  log->writer_.emplace(std::move(writer));
  SMN_RETURN_IF_ERROR(log->writer_->Append(
      EncodeOpenRecord(session_id, tenant_id, seed)));
  SMN_RETURN_IF_ERROR(log->writer_->Sync());
  return log;
}

StatusOr<std::unique_ptr<SessionLog>> SessionLog::Reattach(
    const JournalOptions& options, uint64_t session_id) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("SessionLog: journal dir must be set");
  }
  auto log = std::unique_ptr<SessionLog>(
      new SessionLog(options, JournalFilePath(options.dir, session_id)));
  SMN_ASSIGN_OR_RETURN(RecordWriter writer,
                       RecordWriter::Open(log->path_, /*truncate=*/false));
  log->writer_.emplace(std::move(writer));
  return log;
}

Status SessionLog::MaybeSync() {
  if (options_.fsync_every == 0) return Status::OK();
  if (++appends_since_sync_ < options_.fsync_every) return Status::OK();
  appends_since_sync_ = 0;
  return writer_->Sync();
}

Status SessionLog::LogAssert(CorrespondenceId c, bool approved,
                             uint64_t revision) {
  if (!writer_.has_value()) {
    return Status::FailedPrecondition("SessionLog: append after LogClose");
  }
  SMN_RETURN_IF_ERROR(writer_->Append(EncodeAssertRecord(c, approved,
                                                         revision)));
  return MaybeSync();
}

Status SessionLog::LogAssertSoft(CorrespondenceId c, bool approved,
                                 double error_rate, uint64_t soft_count) {
  if (!writer_.has_value()) {
    return Status::FailedPrecondition("SessionLog: append after LogClose");
  }
  SMN_RETURN_IF_ERROR(writer_->Append(
      EncodeAssertSoftRecord(c, approved, error_rate, soft_count)));
  return MaybeSync();
}

Status SessionLog::LogClose() {
  if (!writer_.has_value()) {
    return Status::FailedPrecondition("SessionLog: LogClose called twice");
  }
  SMN_RETURN_IF_ERROR(writer_->Append(EncodeCloseRecord()));
  SMN_RETURN_IF_ERROR(writer_->Sync());
  writer_.reset();  // Closes the fd.
  return RemoveFile(path_);
}

}  // namespace server
}  // namespace smn
