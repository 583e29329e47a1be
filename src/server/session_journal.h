#ifndef SMN_SERVER_SESSION_JOURNAL_H_
#define SMN_SERVER_SESSION_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/record_codec.h"
#include "util/statusor.h"

namespace smn {
namespace server {

/// Per-session write-ahead journal: the durability layer behind
/// ReconcileService's `journal_dir` option and its crash-recovery path.
///
/// One journal file per session (`session-<zero-padded-id>.wal` under the
/// journal directory), written through the sanctioned record codec
/// (util/record_codec.h: length + CRC32 framing, torn tails detectable).
/// The first record is always Open (session id, tenant id, seed —
/// everything Session::Create needs to rebuild the exact same initial
/// state — plus a reserved word, see EncodeOpenRecord); each accepted *or
/// rejected* Assert/AssertSoft request is appended BEFORE the engine
/// mutates, so replaying the log through the deterministic engine
/// reproduces the pre-crash session bit for bit (rejected requests reject
/// identically on replay — they are kept in the log precisely so arrival
/// ordinals line up). A Close record marks a clean shutdown; its file is
/// unlinked, so a journal file that still exists names a session to
/// recover.
///
/// Threading: a SessionLog belongs to one Session and is only called under
/// that session's mutex, which is what makes journal order equal engine
/// apply order.

/// The tag byte of a journal record payload.
enum class JournalRecordKind : uint32_t {
  kOpen = 1,
  kAssert = 2,
  kAssertSoft = 3,
  kClose = 4,
};

/// One decoded journal record (union-style: the kind selects which fields
/// are meaningful).
struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kOpen;

  // kOpen
  uint64_t session_id = 0;
  uint64_t tenant_id = 0;
  uint64_t seed = 0;

  // kAssert / kAssertSoft
  CorrespondenceId correspondence = 0;
  bool approved = false;
  /// kAssertSoft only: the worker error rate of the noisy answer.
  double error_rate = 0.0;
  /// Revision stamp taken at journaling time, before the engine call: the
  /// number of *accepted* hard asserts (kAssert) or recorded soft answers
  /// (kAssertSoft) so far. Recovery cross-checks it against a replay-local
  /// counter to catch log corruption that still passes CRC.
  uint64_t stamp = 0;
};

/// The Open record ends in a reserved 64-bit word, written as 0. Older
/// journals stored a per-session shard count there; every engine
/// configuration produced bitwise-identical sessions, so the decoder reads
/// and ignores it, and such journals recover unchanged.
std::string EncodeOpenRecord(uint64_t session_id, uint64_t tenant_id,
                             uint64_t seed);
std::string EncodeAssertRecord(CorrespondenceId c, bool approved,
                               uint64_t revision);
std::string EncodeAssertSoftRecord(CorrespondenceId c, bool approved,
                                   double error_rate, uint64_t soft_count);
std::string EncodeCloseRecord();

/// Decodes one record payload. Fails with DataLoss on an unknown kind or a
/// payload that is too short / has trailing bytes (CRC passed but the
/// content is not a record this codec wrote).
StatusOr<JournalRecord> DecodeJournalRecord(std::string_view payload);

/// Journal configuration, shared by every session of one service.
struct JournalOptions {
  /// Directory holding one `.wal` file per live session. Must be non-empty
  /// to construct a SessionLog; created on first use.
  std::string dir;
  /// fsync policy: sync the file after every N appended records. 0 syncs
  /// only at Open and Close — cheapest, still crash-consistent against
  /// *process* death (writes are unbuffered write(2)), but an OS crash can
  /// lose the un-synced tail. 1 is classic WAL durability.
  uint64_t fsync_every = 0;
};

/// `dir`/session-<id zero-padded to 12>.wal — fixed width so the directory
/// listing sorts in session-id order.
std::string JournalFilePath(const std::string& dir, uint64_t session_id);

/// Session ids of every journal file under `dir`, sorted ascending. Files
/// not matching the naming scheme are ignored. An empty list (or NotFound
/// from a missing dir) means nothing to recover.
StatusOr<std::vector<uint64_t>> ListJournalSessions(const std::string& dir);

/// The append handle a live session writes through. Move via unique_ptr;
/// all methods are called under the owning session's mutex.
class SessionLog {
 public:
  /// Starts a fresh journal for a newly opened session: ensures the
  /// directory, truncates any stale file for this id, appends the Open
  /// record, and syncs it (a session the caller was told exists must be
  /// recoverable from its very first record). The trailing parameter is
  /// ignored and kept only so callers that still pass the former shard
  /// count compile; the Open record's reserved word is always 0.
  static StatusOr<std::unique_ptr<SessionLog>> Create(
      const JournalOptions& options, uint64_t session_id, uint64_t tenant_id,
      uint64_t seed, uint64_t /*ignored*/ = 0);

  /// Reopens an existing journal in append mode after recovery replayed it.
  /// Writes nothing.
  static StatusOr<std::unique_ptr<SessionLog>> Reattach(
      const JournalOptions& options, uint64_t session_id);

  SessionLog(const SessionLog&) = delete;
  SessionLog& operator=(const SessionLog&) = delete;

  /// Appends a hard-assert record (see JournalRecord::stamp), then applies
  /// the fsync policy.
  Status LogAssert(CorrespondenceId c, bool approved, uint64_t revision);

  /// Appends a soft-assert record, then applies the fsync policy.
  Status LogAssertSoft(CorrespondenceId c, bool approved, double error_rate,
                       uint64_t soft_count);

  /// Clean shutdown: appends the Close record, syncs, and unlinks the file
  /// — a closed session needs no recovery, so its journal disappears.
  Status LogClose();

  /// The journal file this log appends to.
  const std::string& path() const { return path_; }

 private:
  SessionLog(const JournalOptions& options, std::string path);

  /// Applies the fsync policy after one appended record.
  Status MaybeSync();

  const JournalOptions options_;
  const std::string path_;
  /// Engaged until LogClose; appends after close fail FailedPrecondition.
  std::optional<RecordWriter> writer_;
  uint64_t appends_since_sync_ = 0;
};

}  // namespace server
}  // namespace smn

#endif  // SMN_SERVER_SESSION_JOURNAL_H_
