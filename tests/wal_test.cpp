#include "storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

namespace temporadb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest()
      : path_(testing::TempDir() + "/tdb_wal_" + std::to_string(::getpid()) +
              "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this) & 0xFFFF) +
              ".log") {
    std::remove(path_.c_str());
  }
  ~WalTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  Result<uint64_t> a = (*wal)->Append(1, "one");
  Result<uint64_t> b = (*wal)->Append(2, "two");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, *b);
  EXPECT_EQ((*wal)->next_lsn(), *b + 1);
}

TEST_F(WalTest, ReplayReturnsRecordsInOrder) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        (*wal)->Append(static_cast<uint32_t>(i), "payload" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE((*wal)->Sync().ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             records.push_back(rec);
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].type, static_cast<uint32_t>(i));
    EXPECT_EQ(records[i].payload, "payload" + std::to_string(i));
    if (i > 0) {
      EXPECT_GT(records[i].lsn, records[i - 1].lsn);
    }
  }
}

TEST_F(WalTest, ReplayFromLsnSkipsPrefix) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  uint64_t third = 0;
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> lsn = (*wal)->Append(0, std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    if (i == 2) third = *lsn;
  }
  int count = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(third,
                           [&](const WalRecord&) -> Status {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 3);
}

TEST_F(WalTest, SurvivesReopen) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(7, "persisted").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_lsn(), 2u);
  int count = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             EXPECT_EQ(rec.payload, "persisted");
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, TornTailIsDiscarded) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "complete").ok());
    ASSERT_TRUE((*wal)->Append(2, "will be torn").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Tear the last record's checksum.
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(::ftruncate(fileno(f), size - 3), 0);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             payloads.push_back(rec.payload);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(payloads, std::vector<std::string>{"complete"});
  // New appends start after the surviving prefix and replay cleanly.
  ASSERT_TRUE((*wal)->Append(3, "after recovery").ok());
  payloads.clear();
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             payloads.push_back(rec.payload);
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[1], "after recovery");
}

TEST_F(WalTest, CorruptedBodyStopsReplayAtTear) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "aaaaaaaaaa").ok());
    ASSERT_TRUE((*wal)->Append(2, "bbbbbbbbbb").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  {
    // Flip a byte inside the second (final) record's payload.
    std::FILE* f = std::fopen(path_.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    long second_payload = static_cast<long>(WriteAheadLog::kHeaderSize) +
                          (8 + 4 + 4 + 10 + 8) + (8 + 4 + 4) + 3;
    std::fseek(f, second_payload, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  int count = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord&) -> Status {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, TruncateEmptiesLog) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "x").ok());
  ASSERT_TRUE((*wal)->Truncate().ok());
  // Only the log header survives a truncation.
  EXPECT_EQ(*(*wal)->SizeBytes(), WriteAheadLog::kHeaderSize);
  int count = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord&) -> Status {
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 0);
  // Appends after truncation work.
  EXPECT_TRUE((*wal)->Append(1, "fresh").ok());
}

TEST_F(WalTest, MidLogCorruptionIsReportedNotSwallowed) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "aaaaaaaaaa").ok());
    ASSERT_TRUE((*wal)->Append(2, "bbbbbbbbbb").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  {
    // Flip a byte inside the FIRST record's payload: the damage sits in
    // front of an intact record, so this is not a crash tear — committed
    // data was corrupted and recovery must say so.
    std::FILE* f = std::fopen(path_.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    long first_payload =
        static_cast<long>(WriteAheadLog::kHeaderSize) + (8 + 4 + 4) + 3;
    std::fseek(f, first_payload, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsCorruption()) << wal.status().ToString();
}

TEST_F(WalTest, LsnsContinueAcrossTruncateAndReopen) {
  uint64_t lsn_after_truncate = 0;
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*wal)->Append(1, "r" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
    ASSERT_TRUE((*wal)->Truncate().ok());
    lsn_after_truncate = (*wal)->next_lsn();
    EXPECT_EQ(lsn_after_truncate, 6u);
  }
  // Reopening an empty-but-truncated log must resume the sequence, not
  // restart at 1.
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_lsn(), lsn_after_truncate);
  Result<uint64_t> next = (*wal)->Append(1, "after");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, lsn_after_truncate);
}

TEST_F(WalTest, MinNextLsnBoundsFreshLog) {
  // A lost log file plus a checkpoint manifest hint must not let LSNs
  // regress below what the checkpoint already absorbed.
  auto wal = WriteAheadLog::Open(FileSystem::Default(), path_, 42);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->next_lsn(), 42u);
  Result<uint64_t> lsn = (*wal)->Append(1, "x");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 42u);
}

TEST_F(WalTest, RewindDropsUnsyncedSuffix) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(1, "keep").ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  uint64_t offset = (*wal)->append_offset();
  uint64_t lsn = (*wal)->next_lsn();
  ASSERT_TRUE((*wal)->Append(2, "doomed-1").ok());
  ASSERT_TRUE((*wal)->Append(2, "doomed-2").ok());
  ASSERT_TRUE((*wal)->RewindTo(offset, lsn).ok());
  EXPECT_EQ((*wal)->next_lsn(), lsn);
  std::vector<std::string> payloads;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             payloads.push_back(rec.payload);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(payloads, std::vector<std::string>{"keep"});
  // The freed LSN is reused seamlessly.
  Result<uint64_t> reused = (*wal)->Append(3, "replacement");
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, lsn);
}

TEST_F(WalTest, EmptyPayloadAllowed) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(9, Slice("", 0)).ok());
  int count = 0;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             EXPECT_TRUE(rec.payload.empty());
                             EXPECT_EQ(rec.type, 9u);
                             ++count;
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, OversizePayloadIsRefusedBeforeWriting) {
  // A record longer than kMaxRecordPayload would read back as a torn tail,
  // and the next Open would truncate it and every record after it.  So the
  // append must fail up front and leave the log as it was.
  const std::string big(kMaxRecordPayload + 1, 'x');
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "first").ok());
    ASSERT_TRUE((*wal)->Append(2, "second").ok());
    const uint64_t offset = (*wal)->append_offset();
    const uint64_t lsn = (*wal)->next_lsn();
    Result<uint64_t> refused = (*wal)->Append(3, big);
    EXPECT_TRUE(refused.status().IsInvalidArgument())
        << refused.status().ToString();
    EXPECT_EQ((*wal)->append_offset(), offset);
    EXPECT_EQ((*wal)->next_lsn(), lsn);
    Result<uint64_t> size = (*wal)->SizeBytes();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, offset);

    // Through the group-commit queue the batch fails as a whole, and the
    // queue is not poisoned: the refusal wrote nothing.
    CommitQueue queue(wal->get());
    std::vector<WalBatchEntry> batch = {{4, "unseen"}, {5, big}};
    EXPECT_TRUE(queue.Commit(batch, /*sync=*/true).IsInvalidArgument());
    EXPECT_FALSE(queue.poisoned());
    ASSERT_TRUE(queue.Commit({{6, "third"}}, /*sync=*/true).ok());
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> payloads;
  ASSERT_TRUE((*wal)
                  ->Replay(0,
                           [&](const WalRecord& rec) -> Status {
                             payloads.push_back(rec.payload);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(payloads, (std::vector<std::string>{"first", "second", "third"}));
}

}  // namespace
}  // namespace temporadb
