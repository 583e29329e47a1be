#include "server/session_journal.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace smn {
namespace server {
namespace {

class SessionJournalTest : public ::testing::Test {
 protected:
  std::string Dir() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string("./session_journal_test_") + info->name();
  }

  JournalOptions Options(uint64_t fsync_every = 0) const {
    return JournalOptions{Dir(), fsync_every};
  }

  void SetUp() override {
    ASSERT_TRUE(EnsureDirectory(Dir()).ok());
    const StatusOr<std::vector<std::string>> names = ListDirectory(Dir());
    ASSERT_TRUE(names.ok());
    for (const std::string& name : names.value()) {
      ASSERT_TRUE(RemoveFile(Dir() + "/" + name).ok());
    }
  }

  std::vector<JournalRecord> ReadRecords(uint64_t session_id) const {
    const StatusOr<std::string> bytes =
        ReadFileBytes(JournalFilePath(Dir(), session_id));
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    const RecordParse parse = ParseRecords(bytes.value());
    EXPECT_TRUE(parse.clean());
    std::vector<JournalRecord> records;
    for (const std::string& payload : parse.payloads) {
      StatusOr<JournalRecord> record = DecodeJournalRecord(payload);
      EXPECT_TRUE(record.ok()) << record.status();
      records.push_back(record.value());
    }
    return records;
  }
};

/// An Open record as older journals wrote it, with a shard count in the
/// trailing word that the encoder now always writes as 0.
std::string LegacyOpenRecord(uint64_t session_id, uint64_t tenant_id,
                             uint64_t seed, uint64_t shards) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(JournalRecordKind::kOpen));
  AppendU64(&payload, session_id);
  AppendU64(&payload, tenant_id);
  AppendU64(&payload, seed);
  AppendU64(&payload, shards);
  return payload;
}

TEST_F(SessionJournalTest, RecordsRoundtripThroughEncodeDecode) {
  {
    const StatusOr<JournalRecord> open =
        DecodeJournalRecord(EncodeOpenRecord(42, 7, 0xFEEDull));
    ASSERT_TRUE(open.ok());
    EXPECT_EQ(open->kind, JournalRecordKind::kOpen);
    EXPECT_EQ(open->session_id, 42u);
    EXPECT_EQ(open->tenant_id, 7u);
    EXPECT_EQ(open->seed, 0xFEEDull);
  }
  {
    const StatusOr<JournalRecord> assert_record =
        DecodeJournalRecord(EncodeAssertRecord(3, true, 9));
    ASSERT_TRUE(assert_record.ok());
    EXPECT_EQ(assert_record->kind, JournalRecordKind::kAssert);
    EXPECT_EQ(assert_record->correspondence, 3u);
    EXPECT_TRUE(assert_record->approved);
    EXPECT_EQ(assert_record->stamp, 9u);
  }
  {
    const StatusOr<JournalRecord> soft =
        DecodeJournalRecord(EncodeAssertSoftRecord(5, false, 0.125, 2));
    ASSERT_TRUE(soft.ok());
    EXPECT_EQ(soft->kind, JournalRecordKind::kAssertSoft);
    EXPECT_EQ(soft->correspondence, 5u);
    EXPECT_FALSE(soft->approved);
    EXPECT_EQ(soft->error_rate, 0.125);
    EXPECT_EQ(soft->stamp, 2u);
  }
  {
    const StatusOr<JournalRecord> close =
        DecodeJournalRecord(EncodeCloseRecord());
    ASSERT_TRUE(close.ok());
    EXPECT_EQ(close->kind, JournalRecordKind::kClose);
  }
}

TEST_F(SessionJournalTest, OpenRecordKeepsItsLayoutWithAZeroReservedWord) {
  // The byte layout is unchanged: the encoder writes what an older journal
  // wrote for a monolithic session, and a nonzero legacy word decodes to the
  // same record.
  EXPECT_EQ(EncodeOpenRecord(42, 7, 0xFEEDull),
            LegacyOpenRecord(42, 7, 0xFEEDull, 0));
  const StatusOr<JournalRecord> legacy =
      DecodeJournalRecord(LegacyOpenRecord(42, 7, 0xFEEDull, 4));
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy->kind, JournalRecordKind::kOpen);
  EXPECT_EQ(legacy->session_id, 42u);
  EXPECT_EQ(legacy->tenant_id, 7u);
  EXPECT_EQ(legacy->seed, 0xFEEDull);
}

TEST_F(SessionJournalTest, DecodeRejectsGarbageAsDataLoss) {
  EXPECT_EQ(DecodeJournalRecord("").status().code(), StatusCode::kDataLoss);
  // Unknown kind.
  std::string unknown;
  AppendU32(&unknown, 99);
  EXPECT_EQ(DecodeJournalRecord(unknown).status().code(),
            StatusCode::kDataLoss);
  // Truncated body.
  std::string open = EncodeOpenRecord(1, 1, 1);
  open.resize(open.size() - 3);
  EXPECT_EQ(DecodeJournalRecord(open).status().code(), StatusCode::kDataLoss);
  // Trailing bytes after a valid body.
  std::string padded = EncodeCloseRecord();
  padded.push_back('x');
  EXPECT_EQ(DecodeJournalRecord(padded).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(SessionJournalTest, FilePathIsZeroPaddedForSortedListings) {
  EXPECT_EQ(JournalFilePath("dir", 42), "dir/session-000000000042.wal");
  EXPECT_EQ(JournalFilePath("dir", 0), "dir/session-000000000000.wal");
}

TEST_F(SessionJournalTest, CreateWritesADurableOpenRecord) {
  StatusOr<std::unique_ptr<SessionLog>> log =
      SessionLog::Create(Options(), 3, 7, 123);
  ASSERT_TRUE(log.ok()) << log.status();
  const std::vector<JournalRecord> records = ReadRecords(3);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, JournalRecordKind::kOpen);
  EXPECT_EQ(records[0].session_id, 3u);
  EXPECT_EQ(records[0].tenant_id, 7u);
  EXPECT_EQ(records[0].seed, 123u);
  const StatusOr<std::string> bytes = ReadFileBytes(JournalFilePath(Dir(), 3));
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const RecordParse parse = ParseRecords(bytes.value());
  ASSERT_EQ(parse.payloads.size(), 1u);
  EXPECT_EQ(parse.payloads[0], LegacyOpenRecord(3, 7, 123, 0));
}

TEST_F(SessionJournalTest, CreateRequiresADirectory) {
  EXPECT_EQ(SessionLog::Create(JournalOptions{}, 1, 1, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SessionJournalTest, AssertsAppendInOrder) {
  StatusOr<std::unique_ptr<SessionLog>> log =
      SessionLog::Create(Options(/*fsync_every=*/1), 1, 1, 9);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->LogAssert(10, true, 0).ok());
  ASSERT_TRUE((*log)->LogAssertSoft(11, false, 0.25, 0).ok());
  ASSERT_TRUE((*log)->LogAssert(12, false, 1).ok());
  const std::vector<JournalRecord> records = ReadRecords(1);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[1].kind, JournalRecordKind::kAssert);
  EXPECT_EQ(records[1].correspondence, 10u);
  EXPECT_EQ(records[2].kind, JournalRecordKind::kAssertSoft);
  EXPECT_EQ(records[2].error_rate, 0.25);
  EXPECT_EQ(records[3].correspondence, 12u);
  EXPECT_EQ(records[3].stamp, 1u);
}

TEST_F(SessionJournalTest, CloseAppendsCloseRecordAndUnlinks) {
  StatusOr<std::unique_ptr<SessionLog>> log =
      SessionLog::Create(Options(), 5, 1, 9);
  ASSERT_TRUE(log.ok());
  const std::string path = (*log)->path();
  ASSERT_TRUE((*log)->LogClose().ok());
  EXPECT_EQ(ReadFileBytes(path).status().code(), StatusCode::kNotFound);
  // After close the log refuses everything (the session detaches it anyway).
  EXPECT_EQ((*log)->LogAssert(1, true, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*log)->LogClose().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SessionJournalTest, DestructionWithoutCloseLeavesTheFile) {
  // A destroyed-but-not-closed log is the crash signature: the file (and
  // its records) must survive for recovery.
  { ASSERT_TRUE(SessionLog::Create(Options(), 6, 1, 9).ok()); }
  const std::vector<JournalRecord> records = ReadRecords(6);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, JournalRecordKind::kOpen);
}

TEST_F(SessionJournalTest, ReattachAppendsAfterExistingRecords) {
  {
    StatusOr<std::unique_ptr<SessionLog>> log =
        SessionLog::Create(Options(), 2, 1, 9);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->LogAssert(10, true, 0).ok());
  }  // Crash: no LogClose.
  {
    StatusOr<std::unique_ptr<SessionLog>> log =
        SessionLog::Reattach(Options(), 2);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->LogAssert(11, true, 1).ok());
  }
  const std::vector<JournalRecord> records = ReadRecords(2);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, JournalRecordKind::kOpen);
  EXPECT_EQ(records[1].correspondence, 10u);
  EXPECT_EQ(records[2].correspondence, 11u);
}

TEST_F(SessionJournalTest, ListJournalSessionsFiltersAndSorts) {
  ASSERT_TRUE(SessionLog::Create(Options(), 12, 1, 0).ok());
  ASSERT_TRUE(SessionLog::Create(Options(), 3, 1, 0).ok());
  ASSERT_TRUE(SessionLog::Create(Options(), 100, 1, 0).ok());
  // Noise the scan must ignore.
  {
    StatusOr<RecordWriter> noise =
        RecordWriter::Open(Dir() + "/not-a-journal.txt", true);
    ASSERT_TRUE(noise.ok());
  }
  {
    StatusOr<RecordWriter> noise =
        RecordWriter::Open(Dir() + "/session-abc.wal", true);
    ASSERT_TRUE(noise.ok());
  }
  const StatusOr<std::vector<uint64_t>> ids = ListJournalSessions(Dir());
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value(), (std::vector<uint64_t>{3, 12, 100}));
}

TEST_F(SessionJournalTest, ListMissingDirectoryIsNotFound) {
  EXPECT_EQ(ListJournalSessions(Dir() + "_nope").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace server
}  // namespace smn
