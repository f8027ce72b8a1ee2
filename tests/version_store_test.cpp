#include "temporal/version_store.h"

#include <gtest/gtest.h>

#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace {

// The row ids a writer-thread scan under `preds` yields, in order.
std::vector<RowId> ScanRows(const VersionStore& store, BatchPredicates preds) {
  std::vector<RowId> rows;
  VersionBatchScan scan = store.BatchScan(preds);
  VersionBatch batch;
  while (scan.Next(&batch)) {
    rows.insert(rows.end(), batch.rows.begin(), batch.rows.end());
  }
  return rows;
}

BitemporalTuple Tuple(const char* name, int64_t txn_start) {
  BitemporalTuple t;
  t.values = {Value(name)};
  t.valid = Period::All();
  t.txn = Period::From(Chronon(txn_start));
  return t;
}

class VersionStoreTest : public ::testing::Test {
 protected:
  VersionStoreTest() : manager_(&clock_) {}

  Transaction* BeginAt(int64_t day) {
    clock_.SetTime(Chronon(day));
    Result<Transaction*> txn = manager_.Begin();
    EXPECT_TRUE(txn.ok());
    return *txn;
  }

  ManualClock clock_;
  TxnManager manager_;
  VersionStore store_;
};

TEST_F(VersionStoreTest, AppendAssignsDenseRowIds) {
  Transaction* txn = BeginAt(10);
  EXPECT_EQ(*store_.Append(txn, Tuple("a", 10)), 0u);
  EXPECT_EQ(*store_.Append(txn, Tuple("b", 10)), 1u);
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_EQ(store_.live_count(), 2u);
  EXPECT_EQ(store_.current_count(), 2u);
  EXPECT_EQ((*store_.Get(0))->values[0].AsString(), "a");
}

TEST_F(VersionStoreTest, MutationsRequireActiveTransaction) {
  EXPECT_FALSE(store_.Append(nullptr, Tuple("a", 1)).ok());
  Transaction* txn = BeginAt(10);
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_FALSE(store_.Append(txn, Tuple("a", 1)).ok());
}

TEST_F(VersionStoreTest, CloseTxnEndsCurrentState) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, row, Chronon(20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());
  EXPECT_EQ(store_.current_count(), 0u);
  EXPECT_EQ((*store_.Get(row))->txn, Period(Chronon(10), Chronon(20)));
  // Double close fails.
  Transaction* t3 = BeginAt(30);
  EXPECT_EQ(store_.CloseTxn(t3, row, Chronon(30)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(manager_.Abort(t3).ok());
}

TEST_F(VersionStoreTest, AbortUndoesAppend) {
  Transaction* txn = BeginAt(10);
  ASSERT_TRUE(store_.Append(txn, Tuple("a", 10)).ok());
  ASSERT_TRUE(store_.Append(txn, Tuple("b", 10)).ok());
  ASSERT_TRUE(manager_.Abort(txn).ok());
  EXPECT_EQ(store_.live_count(), 0u);
  EXPECT_EQ(store_.version_count(), 0u);
  EXPECT_TRUE(ScanRows(store_, {.txn_contains = Chronon(10)}).empty());
  // A fresh append reuses row id 0.
  Transaction* t2 = BeginAt(20);
  EXPECT_EQ(*store_.Append(t2, Tuple("c", 20)), 0u);
  ASSERT_TRUE(manager_.Commit(t2).ok());
}

TEST_F(VersionStoreTest, AbortUndoesCloseTxn) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, row, Chronon(20)).ok());
  ASSERT_TRUE(manager_.Abort(t2).ok());
  EXPECT_EQ(store_.current_count(), 1u);
  EXPECT_TRUE((*store_.Get(row))->IsCurrentState());
  EXPECT_EQ(ScanRows(store_, {.txn_contains = Chronon(25)}).size(), 1u);
}

TEST_F(VersionStoreTest, AbortUndoesPhysicalDeleteAndUpdate) {
  Transaction* t1 = BeginAt(10);
  RowId row = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());

  Transaction* t2 = BeginAt(20);
  BitemporalTuple updated = Tuple("a2", 10);
  ASSERT_TRUE(store_.PhysicalUpdate(t2, row, updated).ok());
  ASSERT_TRUE(store_.PhysicalDelete(t2, row).ok());
  ASSERT_TRUE(manager_.Abort(t2).ok());
  ASSERT_TRUE(store_.Get(row).ok());
  EXPECT_EQ((*store_.Get(row))->values[0].AsString(), "a");
  EXPECT_EQ(store_.live_count(), 1u);
}

TEST_F(VersionStoreTest, PhysicalDeleteTombstones) {
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  RowId b = *store_.Append(t1, Tuple("b", 10));
  ASSERT_TRUE(store_.PhysicalDelete(t1, a).ok());
  ASSERT_TRUE(manager_.Commit(t1).ok());
  EXPECT_TRUE(store_.Get(a).status().IsNotFound());
  EXPECT_TRUE(store_.Get(b).ok());
  EXPECT_EQ(store_.live_count(), 1u);
  EXPECT_EQ(store_.version_count(), 2u);  // Slot preserved.
  // Row ids remain stable: a fresh append takes a new id.
  Transaction* t2 = BeginAt(20);
  EXPECT_EQ(*store_.Append(t2, Tuple("c", 20)), 2u);
  ASSERT_TRUE(manager_.Commit(t2).ok());
}

TEST_F(VersionStoreTest, TxnAsOfAndCurrentScans) {
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, a, Chronon(20)).ok());
  ASSERT_TRUE(store_.Append(t2, Tuple("b", 20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());

  EXPECT_EQ(ScanRows(store_, {.txn_contains = Chronon(15)}),
            std::vector<RowId>{a});
  EXPECT_EQ(ScanRows(store_, {.txn_contains = Chronon(25)}),
            std::vector<RowId>{1});
  EXPECT_TRUE(ScanRows(store_, {.txn_contains = Chronon(5)}).empty());
  EXPECT_EQ(ScanRows(store_, {.txn_current = true}), std::vector<RowId>{1});
  EXPECT_EQ(store_.current_count(), 1u);
}

TEST_F(VersionStoreTest, ValidOverlappingScans) {
  Transaction* txn = BeginAt(10);
  BitemporalTuple t = Tuple("a", 10);
  t.valid = Period(Chronon(100), Chronon(200));
  ASSERT_TRUE(store_.Append(txn, t).ok());
  BitemporalTuple u = Tuple("b", 10);
  u.valid = Period(Chronon(300), Chronon(400));
  ASSERT_TRUE(store_.Append(txn, u).ok());
  ASSERT_TRUE(manager_.Commit(txn).ok());

  EXPECT_EQ(
      ScanRows(store_, {.valid_overlaps = Period(Chronon(150), Chronon(160))}),
      std::vector<RowId>{0});
  EXPECT_EQ(
      ScanRows(store_, {.valid_overlaps = Period(Chronon(150), Chronon(350))})
          .size(),
      2u);
  EXPECT_TRUE(
      ScanRows(store_, {.valid_overlaps = Period(Chronon(200), Chronon(300))})
          .empty());
}

TEST_F(VersionStoreTest, ObserverSeesCommittedMutationShapes) {
  std::vector<VersionOp::Kind> kinds;
  store_.set_observer(
      [&](const VersionOp& op) { kinds.push_back(op.kind); });
  Transaction* txn = BeginAt(10);
  RowId row = *store_.Append(txn, Tuple("a", 10));
  ASSERT_TRUE(store_.CloseTxn(txn, row, Chronon(10)).ok());
  ASSERT_TRUE(manager_.Commit(txn).ok());
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], VersionOp::Kind::kAppend);
  EXPECT_EQ(kinds[1], VersionOp::Kind::kCloseTxn);
}

TEST_F(VersionStoreTest, ApplyReplayReproducesState) {
  // Record ops from a live store, replay into a fresh one, compare.
  std::vector<VersionOp> ops;
  store_.set_observer([&](const VersionOp& op) { ops.push_back(op); });
  Transaction* t1 = BeginAt(10);
  RowId a = *store_.Append(t1, Tuple("a", 10));
  ASSERT_TRUE(store_.Append(t1, Tuple("b", 10)).ok());
  ASSERT_TRUE(manager_.Commit(t1).ok());
  Transaction* t2 = BeginAt(20);
  ASSERT_TRUE(store_.CloseTxn(t2, a, Chronon(20)).ok());
  ASSERT_TRUE(store_.Append(t2, Tuple("c", 20)).ok());
  ASSERT_TRUE(manager_.Commit(t2).ok());

  VersionStore replica;
  for (const VersionOp& op : ops) {
    ASSERT_TRUE(replica.ApplyReplay(op).ok());
  }
  EXPECT_EQ(replica.version_count(), store_.version_count());
  EXPECT_EQ(replica.current_count(), store_.current_count());
  for (RowId row = 0; row < store_.version_count(); ++row) {
    EXPECT_EQ(**replica.Get(row), **store_.Get(row)) << row;
  }
}

TEST_F(VersionStoreTest, LoadSlotPreservesTombstones) {
  VersionStore store;
  EXPECT_EQ(store.LoadSlot(Tuple("a", 1)), 0u);
  EXPECT_EQ(store.LoadSlot(std::nullopt), 1u);
  EXPECT_EQ(store.LoadSlot(Tuple("c", 3)), 2u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.version_count(), 3u);
  EXPECT_TRUE(store.Get(1).status().IsNotFound());
  EXPECT_EQ((*store.Get(2))->values[0].AsString(), "c");
}

TEST_F(VersionStoreTest, LoadSlotKeepsClosedVersionsScannable) {
  VersionStore store;
  BitemporalTuple closed = Tuple("old", 10);
  closed.txn = Period(Chronon(10), Chronon(20));
  store.LoadSlot(closed);
  store.LoadSlot(Tuple("cur", 20));
  EXPECT_EQ(ScanRows(store, {.txn_contains = Chronon(15)}),
            std::vector<RowId>{0});
  EXPECT_EQ(ScanRows(store, {.txn_contains = Chronon(25)}),
            std::vector<RowId>{1});
  EXPECT_EQ(store.current_count(), 1u);
}

TEST_F(VersionStoreTest, ApproximateBytesGrows) {
  size_t before = store_.ApproximateBytes();
  Transaction* txn = BeginAt(10);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store_.Append(txn, Tuple("some-name", 10)).ok());
  }
  ASSERT_TRUE(manager_.Commit(txn).ok());
  EXPECT_GT(store_.ApproximateBytes(), before);
}

}  // namespace
}  // namespace temporadb
