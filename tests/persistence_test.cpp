// Durability tests: WAL replay, checkpoints, recovery after "crashes"
// (dropping the Database object without checkpointing), and torn-log
// handling — all through the public Database API.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "common/coding.h"
#include "common/random.h"
#include "core/database.h"
#include "core/paper_scenario.h"
#include "storage/fault_injection.h"
#include "storage/record.h"

namespace temporadb {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  PersistenceTest() {
    dir_ = testing::TempDir() + "/tdb_persist_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    clock_.SetDate("01/01/80").ok();
  }
  ~PersistenceTest() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Database> Open() {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(*db);
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
};

int PersistenceTest::counter_ = 0;

TEST_F(PersistenceTest, DdlAndDmlSurviveReopen) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (name = string)").ok());
    ASSERT_TRUE(db->Execute("append to t (name = \"alpha\")").ok());
    ASSERT_TRUE(db->Execute("append to t (name = \"beta\")").ok());
    EXPECT_GT(db->WalBytes(), 0u);
  }  // "Crash": no checkpoint.
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);
  }
}

TEST_F(PersistenceTest, AbortedTransactionsAreNotReplayed) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 1)").ok());
    Result<Transaction*> txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Execute("append to t (n = 2)").ok());
    ASSERT_TRUE(db->Abort(*txn).ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 1u);
  }
}

TEST_F(PersistenceTest, CheckpointTruncatesWalAndSurvives) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (name = string)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Execute("append to t (name = \"n" +
                              std::to_string(i) + "\")")
                      .ok());
    }
    uint64_t wal_before = db->WalBytes();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_LT(db->WalBytes(), wal_before);
    // Only the log header (carrying the resume LSN) remains.
    EXPECT_EQ(db->WalBytes(), WriteAheadLog::kHeaderSize);
    // Post-checkpoint traffic goes to the fresh WAL.
    ASSERT_TRUE(db->Execute("append to t (name = \"after\")").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    EXPECT_EQ(db->Query("retrieve (x.name)")->size(), 21u);
  }
}

TEST_F(PersistenceTest, RepeatedCheckpointsGcOldDirectories) {
  auto db = Open();
  ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
  for (int round = 1; round <= 3; ++round) {
    ASSERT_TRUE(
        db->Execute("append to t (n = " + std::to_string(round) + ")").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  int ckpt_dirs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().filename().string().rfind("ckpt-", 0) == 0) {
      ++ckpt_dirs;
    }
  }
  EXPECT_EQ(ckpt_dirs, 1);
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 3u);
}

TEST_F(PersistenceTest, BitemporalSemanticsSurviveCheckpointAndReplay) {
  // The full paper scenario, checkpointed mid-history, crashed, reopened:
  // every as-of answer must be identical.
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation faculty "
                    "(name = string, rank = string)")
            .ok());
    ASSERT_TRUE(db->Execute("range of f is faculty").ok());
    clock_.SetDate("08/25/77").ok();
    ASSERT_TRUE(db->Execute("append to faculty (name = \"Merrie\", "
                            "rank = \"associate\") "
                            "valid from \"09/01/77\" to \"inf\"")
                    .ok());
    ASSERT_TRUE(db->Checkpoint().ok());  // Mid-history checkpoint.
    clock_.SetDate("12/15/82").ok();
    ASSERT_TRUE(db->Execute("replace f (rank = \"full\") "
                            "valid from \"12/01/82\" to \"inf\" "
                            "where f.name = \"Merrie\"")
                    .ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of f is faculty").ok());
    Result<Rowset> before = db->Query(
        "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/10/82\" "
        "when f overlap \"12/05/82\"");
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_EQ(before->size(), 1u);
    EXPECT_EQ(before->rows()[0].values[0].AsString(), "associate");
    Result<Rowset> after = db->Query(
        "retrieve (f.rank) where f.name = \"Merrie\" as of \"12/20/82\" "
        "when f overlap \"12/05/82\"");
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->size(), 1u);
    EXPECT_EQ(after->rows()[0].values[0].AsString(), "full");
  }
}

TEST_F(PersistenceTest, HistoricalTombstonesSurvive) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create historical relation h (name = string)").ok());
    ASSERT_TRUE(db->Execute("append to h (name = \"keep\")").ok());
    ASSERT_TRUE(db->Execute("append to h (name = \"erase\")").ok());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    ASSERT_TRUE(db->Execute("correct x where x.name = \"erase\"").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // More traffic referencing post-tombstone row ids.
    ASSERT_TRUE(db->Execute("append to h (name = \"later\")").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 2u);
  }
}

TEST_F(PersistenceTest, TornWalTailDropsOnlyUncommittedSuffix) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 1)").ok());
    ASSERT_TRUE(db->Execute("append to t (n = 2)").ok());
  }
  // Tear the last few bytes of the WAL, clipping the final commit.
  {
    std::string wal_path = dir_ + "/wal.log";
    std::FILE* f = std::fopen(wal_path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_EQ(::ftruncate(fileno(f), size - 5), 0);
    std::fclose(f);
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    // The second append's commit record was torn: only one row survives.
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 1u);
    // The database remains writable.
    ASSERT_TRUE(db->Execute("append to t (n = 3)").ok());
    EXPECT_EQ(db->Query("retrieve (x.n)")->size(), 2u);
  }
}

TEST_F(PersistenceTest, CompactingCheckpointReclaimsTombstones) {
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create historical relation h (name = string)").ok());
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db->Execute("append to h (name = \"n" + std::to_string(i) + "\")")
              .ok());
    }
    // Erase most of them, leaving tombstone slots behind.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(db->Execute("correct x where x.name = \"n" +
                              std::to_string(i) + "\"")
                      .ok());
    }
    Result<StoredRelation*> rel = db->GetRelation("h");
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ((*rel)->store()->version_count(), 10u);
    EXPECT_EQ((*rel)->store()->live_count(), 2u);
    ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
    EXPECT_EQ((*rel)->store()->version_count(), 2u);
    // Post-compaction traffic uses the renumbered ids.
    ASSERT_TRUE(db->Execute("append to h (name = \"after\")").ok());
    ASSERT_TRUE(db->Execute("correct x where x.name = \"n8\"").ok());
  }
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is h").ok());
    Result<Rowset> rows = db->Query("retrieve (x.name)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 2u);  // n9 and "after".
    Result<StoredRelation*> rel = db->GetRelation("h");
    ASSERT_TRUE(rel.ok());
    // 2 compacted survivors + 1 append; the post-checkpoint correction
    // tombstoned one of them in the WAL replay.
    EXPECT_EQ((*rel)->store()->version_count(), 3u);
  }
}

TEST_F(PersistenceTest, CompactionPreservesIndexes) {
  auto db = Open();
  ASSERT_TRUE(
      db->Execute("create historical relation h (name = string)").ok());
  ASSERT_TRUE(db->Execute("create index on h (name)").ok());
  ASSERT_TRUE(db->Execute("range of x is h").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"keep\")").ok());
  ASSERT_TRUE(db->Execute("append to h (name = \"drop\")").ok());
  ASSERT_TRUE(db->Execute("correct x where x.name = \"drop\"").ok());
  ASSERT_TRUE(db->Checkpoint(/*compact=*/true).ok());
  // Index probes still answer correctly after the rebuild.
  Result<Rowset> rows = db->Query("retrieve (x.name) where x.name = \"keep\"");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(db->Query("retrieve (x.name) where x.name = \"drop\"")->size(),
            0u);
}

TEST_F(PersistenceTest, DropRelationSurvivesReopen) {
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("create relation a (n = int)").ok());
    ASSERT_TRUE(db->Execute("create relation b (n = int)").ok());
    ASSERT_TRUE(db->Execute("destroy a").ok());
  }
  {
    auto db = Open();
    EXPECT_TRUE(db->GetRelation("a").status().IsNotFound());
    EXPECT_TRUE(db->GetRelation("b").ok());
  }
}

TEST_F(PersistenceTest, RecoveredClockNeverRegresses) {
  {
    auto db = Open();
    clock_.SetDate("12/15/82").ok();
    ASSERT_TRUE(db->Execute("create rollback relation r (n = int)").ok());
    ASSERT_TRUE(db->Execute("append to r (n = 1)").ok());
  }
  // Reopen with the clock reset to an earlier date; recovered transaction
  // timestamps must clamp it.
  clock_.SetDate("01/01/80").ok();
  {
    auto db = Open();
    ASSERT_TRUE(db->Execute("range of x is r").ok());
    ASSERT_TRUE(db->Execute("append to r (n = 2)").ok());
    Result<StoredRelation*> rel = db->GetRelation("r");
    ASSERT_TRUE(rel.ok());
    Chronon min_allowed = Date::Parse("12/15/82")->chronon();
    (*rel)->store()->ForEach([&](RowId, const BitemporalTuple& t) {
      EXPECT_GE(t.txn.begin(), min_allowed);
    });
  }
}

// Shared workload for the targeted checkpoint-crash tests: one relation,
// five synced commits, then a checkpoint.  Returns the checkpoint status
// and reports the barrier count before/after it.
void RunCheckpointWorkload(FaultInjectionFileSystem* fs,
                           const std::string& dir, ManualClock* clock,
                           uint64_t* barriers_before_checkpoint,
                           Status* checkpoint_status) {
  DatabaseOptions options;
  options.path = dir;
  options.clock = clock;
  options.fs = fs;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("create relation t (n = int)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*db)->Execute("append to t (n = " + std::to_string(i) + ")").ok());
  }
  *barriers_before_checkpoint = fs->sync_count();
  *checkpoint_status = (*db)->Checkpoint();
}

void ExpectFiveRows(FaultInjectionFileSystem* fs, const std::string& dir,
                    ManualClock* clock, bool expect_writable) {
  DatabaseOptions options;
  options.path = dir;
  options.clock = clock;
  options.fs = fs;
  Result<std::unique_ptr<Database>> db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("range of x is t").ok());
  Result<Rowset> rows = (*db)->Query("retrieve (x.n)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // Exactly the five acknowledged commits: nothing lost, nothing
  // double-applied.
  EXPECT_EQ(rows->size(), 5u);
  Result<StoredRelation*> rel = (*db)->GetRelation("t");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->store()->version_count(), 5u);
  if (expect_writable) {
    ASSERT_TRUE((*db)->Execute("append to t (n = 99)").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 6u);
  }
}

TEST_F(PersistenceTest, CrashBetweenCurrentPublishAndWalTruncate) {
  // Dry run: the checkpoint's final barrier is the WAL-truncation fsync.
  uint64_t last_barrier = 0;
  {
    FaultInjectionFileSystem fs;
    uint64_t before = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    last_barrier = fs.sync_count();
    ASSERT_GT(last_barrier, before);
  }
  std::filesystem::remove_all(dir_);
  // Crash run: CURRENT (with its resume LSN) is durable, the WAL still
  // holds every pre-checkpoint record.  Recovery must not replay them on
  // top of the checkpoint image.
  FaultInjectionFileSystem fs;
  fs.PlanCrashAtSync(last_barrier);
  {
    uint64_t before = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    EXPECT_FALSE(ckpt.ok());
  }
  ASSERT_TRUE(fs.RealizeCrash().ok());
  ExpectFiveRows(&fs, dir_, &clock_, /*expect_writable=*/true);
}

TEST_F(PersistenceTest, CrashInTheMiddleOfCheckpointKeepsOldState) {
  // Crash at the first barrier inside Checkpoint (the catalog file's
  // fsync): CURRENT still names the old state, the WAL is intact, and
  // recovery must see exactly the pre-checkpoint database.
  uint64_t before = 0;
  {
    FaultInjectionFileSystem fs;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &before, &ckpt);
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  }
  std::filesystem::remove_all(dir_);
  FaultInjectionFileSystem fs;
  fs.PlanCrashAtSync(before + 1);
  {
    uint64_t ignored = 0;
    Status ckpt;
    RunCheckpointWorkload(&fs, dir_, &clock_, &ignored, &ckpt);
    EXPECT_FALSE(ckpt.ok());
  }
  ASSERT_TRUE(fs.RealizeCrash().ok());
  ExpectFiveRows(&fs, dir_, &clock_, /*expect_writable=*/true);
}

TEST_F(PersistenceTest, FailedCommitSyncIsNeverResurrected) {
  // A commit whose fsync fails must not become durable because a *later*
  // fsync succeeded; and after the failed fsync the database refuses
  // further commits until reopened.
  FaultInjectionFileSystem fs;
  {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.fs = &fs;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Execute("create relation t (n = int)").ok());
    ASSERT_TRUE((*db)->Execute("append to t (n = 1)").ok());
    std::string wal_path = dir_ + "/wal.log";
    fs.set_fault_filter([&](FaultOp op, const std::string& path) {
      return op == FaultOp::kSync && path == wal_path;
    });
    Result<tquel::ExecResult> failed = (*db)->Execute("append to t (n = 2)");
    EXPECT_FALSE(failed.ok());
    fs.set_fault_filter(nullptr);
    // The log is poisoned: further commits fail until reopen.
    Result<tquel::ExecResult> refused = (*db)->Execute("append to t (n = 3)");
    EXPECT_FALSE(refused.ok());
    EXPECT_TRUE(refused.status().IsFailedPrecondition())
        << refused.status().ToString();
  }
  {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.fs = &fs;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("range of x is t").ok());
    // Only the acknowledged first append survives.
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 1u);
    ASSERT_TRUE((*db)->Execute("append to t (n = 4)").ok());
    EXPECT_EQ((*db)->Query("retrieve (x.n)")->size(), 2u);
  }
}

TEST_F(PersistenceTest, PaperScenarioPersistedEndToEnd) {
  {
    auto db = Open();
    ASSERT_TRUE(paper::BuildTemporalFaculty(db.get(), &clock_).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  {
    auto db = Open();
    Result<StoredRelation*> rel = db->GetRelation("faculty");
    ASSERT_TRUE(rel.ok());
    EXPECT_EQ((*rel)->store()->live_count(), 7u);  // Figure 8's seven rows.
  }
}

TEST_F(PersistenceTest, OversizeTupleSurvivesCheckpoint) {
  // A tuple larger than any fixed page: the checkpoint must carry it whole.
  const std::string big(10000, 'q');
  std::vector<Row> want;
  {
    auto db = Open();
    ASSERT_TRUE(
        db->Execute("create temporal relation t (s = string, n = int)").ok());
    ASSERT_TRUE(db->Execute("append to t (s = \"small\", n = 1)").ok());
    ASSERT_TRUE(
        db->Execute("append to t (s = \"" + big + "\", n = 2)").ok());
    ASSERT_TRUE(db->Execute("append to t (s = \"after\", n = 3)").ok());
    ASSERT_TRUE(db->Execute("range of x is t").ok());
    Result<Rowset> rows = db->Query("retrieve (x.s, x.n)");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    want = rows->rows();
    ASSERT_EQ(want.size(), 3u);
    Status ckpt = db->Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
  }
  auto db = Open();
  ASSERT_TRUE(db->Execute("range of x is t").ok());
  Result<Rowset> rows = db->Query("retrieve (x.s, x.n)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows(), want);
  EXPECT_EQ(db->WalBytes(), WriteAheadLog::kHeaderSize);  // All from the image.
}

// --- Hostile checkpoint bytes ----------------------------------------------

// One framed record of a checkpoint file, located by its header alone.
struct Frame {
  size_t offset = 0;
  uint64_t seq = 0;
  uint32_t type = 0;
  std::string payload;
  size_t size = 0;
};

std::vector<Frame> SplitFrames(const std::string& bytes) {
  std::vector<Frame> frames;
  size_t offset = 0;
  while (offset < bytes.size()) {
    Frame f;
    f.offset = offset;
    std::string_view header(bytes.data() + offset, kRecordHeaderSize);
    uint32_t len = 0;
    GetFixed64(&header, &f.seq);
    GetFixed32(&header, &f.type);
    GetFixed32(&header, &len);
    f.payload = bytes.substr(offset + kRecordHeaderSize, len);
    f.size = kRecordHeaderSize + len + kRecordTrailerSize;
    frames.push_back(f);
    offset += f.size;
  }
  return frames;
}

class HostileCheckpointTest : public PersistenceTest {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.path = dir_;
    options.clock = &clock_;
    options.store_options.partition_rows = 4;  // Several sealed partitions.
    return options;
  }

  std::string CheckpointPath() const { return dir_ + "/ckpt-1/checkpoint.tdb"; }

  // Builds a small database of all four kinds, each with an attribute
  // index, tombstones, closed versions and sealed partitions, checkpoints
  // it and keeps the image.
  void SetUp() override {
    {
      Result<std::unique_ptr<Database>> db = Database::Open(Options());
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      for (const char* kind : {"", "rollback ", "historical ", "temporal "}) {
        std::string name = std::string("r") + (kind[0] != '\0' ? kind[0] : 's');
        ASSERT_TRUE((*db)->Execute(std::string("create ") + kind +
                                   "relation " + name +
                                   " (name = string, n = int)")
                        .ok());
        // Index declarations travel in the catalog record; mutations must
        // reach them too.
        ASSERT_TRUE((*db)->Execute("create index on " + name + " (n)").ok());
        ASSERT_TRUE((*db)->Execute("range of x is " + name).ok());
        for (int i = 0; i < 12; ++i) {
          if (i % 3 == 0) clock_.AdvanceDays(1);
          ASSERT_TRUE((*db)->Execute("append to " + name + " (name = \"e" +
                                     std::to_string(i) + "\", n = " +
                                     std::to_string(i) + ")")
                          .ok());
        }
        clock_.AdvanceDays(1);
        ASSERT_TRUE(
            (*db)->Execute("replace x (n = 100) where x.name = \"e1\"").ok());
        ASSERT_TRUE((*db)->Execute("delete x where x.name = \"e2\"").ok());
        if (std::string(kind) == "historical ") {
          ASSERT_TRUE((*db)->Execute("correct x where x.name = \"e3\"").ok());
        }
      }
      Status ckpt = (*db)->Checkpoint();
      ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
      Result<StoredRelation*> rel = (*db)->GetRelation("rt");
      ASSERT_TRUE(rel.ok());
      ASSERT_GT((*rel)->store()->sealed_partition_count(), 1u);
    }
    std::ifstream in(CheckpointPath(), std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(image_.empty());
    frames_ = SplitFrames(image_);
    // The untouched image opens: the harness below is not vacuous.
    EXPECT_TRUE(OpenWith(image_).ok());
  }

  // Installs `bytes` as the checkpoint and opens the database over it.
  Status OpenWith(const std::string& bytes) {
    {
      std::ofstream out(CheckpointPath(), std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return Database::Open(Options()).status();
  }

  // Every mutation must fail to open with a Status (never crash).
  void ExpectRefused(const std::string& bytes, const std::string& what) {
    Status s = OpenWith(bytes);
    EXPECT_FALSE(s.ok()) << what << " opened";
  }

  std::string image_;
  std::vector<Frame> frames_;
};

TEST_F(HostileCheckpointTest, ImageIsTheOnlyFileOfItsDirectory) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_ + "/ckpt-1")) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"checkpoint.tdb"});
  // Ordinals run from 1, and the stream has at least one record per kind
  // of content (catalog, slots, partitions, end).
  ASSERT_GE(frames_.size(), 4u);
  std::map<uint32_t, int> types;
  for (size_t i = 0; i < frames_.size(); ++i) {
    EXPECT_EQ(frames_[i].seq, i + 1);
    ++types[frames_[i].type];
  }
  EXPECT_EQ(types.size(), 4u);
}

TEST_F(HostileCheckpointTest, TruncationIsDetected) {
  std::vector<size_t> cuts;
  for (const Frame& f : frames_) {
    // The record boundary, then cuts inside the header, the payload and
    // the checksum.
    for (size_t delta : {size_t{0}, size_t{1}, size_t{8}, size_t{15},
                         kRecordHeaderSize, f.size / 2, f.size - 1}) {
      if (delta < f.size) cuts.push_back(f.offset + delta);
    }
  }
  for (size_t cut : cuts) {
    ExpectRefused(image_.substr(0, cut), "truncation at " + std::to_string(cut));
  }
  // Bytes after the end record, a dropped record and two swapped ones.
  ExpectRefused(image_ + std::string(1, '\0'), "one trailing byte");
  ExpectRefused(image_ + image_.substr(frames_.back().offset),
                "a repeated end record");
  for (size_t i = 0; i < frames_.size(); ++i) {
    std::string dropped = image_;
    dropped.erase(frames_[i].offset, frames_[i].size);
    ExpectRefused(dropped, "record " + std::to_string(i + 1) + " dropped");
  }
  std::string swapped = image_.substr(0, frames_[1].offset) +
                        image_.substr(frames_[2].offset, frames_[2].size) +
                        image_.substr(frames_[1].offset, frames_[1].size) +
                        image_.substr(frames_[2].offset + frames_[2].size);
  ExpectRefused(swapped, "records 2 and 3 swapped");
}

TEST_F(HostileCheckpointTest, FlippedBytesAreDetected) {
  Random rng(20250419);
  for (int i = 0; i < 256; ++i) {
    const size_t pos = rng.Uniform(image_.size());
    std::string bytes = image_;
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng.Uniform(255)));
    ExpectRefused(bytes, "byte flip at " + std::to_string(pos));
  }
}

TEST_F(HostileCheckpointTest, TruncatedPayloadsBehindValidChecksumsAreDetected) {
  // Re-framing a shortened payload with a correct checksum gets past the
  // framing, so each record type's decoder must reject it on its own.
  std::map<uint32_t, size_t> first_of_type;
  for (size_t i = 0; i < frames_.size(); ++i) {
    first_of_type.emplace(frames_[i].type, i);
  }
  ASSERT_EQ(first_of_type.size(), 4u);
  for (const auto& [type, index] : first_of_type) {
    const Frame& f = frames_[index];
    const std::string before = image_.substr(0, f.offset);
    const std::string after = image_.substr(f.offset + f.size);
    for (size_t len = 0; len < f.payload.size(); ++len) {
      std::string bytes = before;
      ASSERT_TRUE(EncodeRecord(f.seq, f.type, f.payload.substr(0, len), &bytes)
                      .ok());
      bytes += after;
      ExpectRefused(bytes, "record type " + std::to_string(type) +
                               " payload cut to " + std::to_string(len));
    }
  }
}

TEST_F(HostileCheckpointTest, OldThreeFileLayoutIsRefused) {
  // A directory laid out as catalog.tdb + rel-<id>.heap + partitions.tdb
  // has no checkpoint.tdb; it is refused, not read as an empty database.
  std::filesystem::rename(CheckpointPath(), dir_ + "/ckpt-1/catalog.tdb");
  Result<std::unique_ptr<Database>> db = Database::Open(Options());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
}

}  // namespace
}  // namespace temporadb
