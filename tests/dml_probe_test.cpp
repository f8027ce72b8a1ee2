// Index-probed DML must be invisible in its results.  Two databases replay
// the same seeded HR/payroll stream — fenced in-place corrections included —
// and differ only in the four `create index` statements of the workload DDL,
// so one finds its delete/replace targets through the attribute indexes and
// the other by enumerating each kind's scope.  Every statement must affect
// the same number of tuples, and the stored slots of every relation (row
// ids, values, both periods, tombstones) must stay identical.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "txn/clock.h"
#include "workload/generator.h"

namespace temporadb {
namespace {

using workload::WorkloadDdl;
using workload::WorkloadGenerator;
using workload::WorkloadOp;
using workload::WorkloadOptions;

constexpr const char* kRelations[] = {"departments", "headcount",
                                      "assignments", "salaries"};

struct Replica {
  ManualClock clock;
  std::unique_ptr<Database> db;

  Result<tquel::ExecResult> Apply(const WorkloadOp& op) {
    clock.SetTime(Chronon(op.day));
    return db->Execute(op.stmt);
  }
};

// Every slot of the relation in row order; nullopt marks a tombstone.
std::vector<std::optional<BitemporalTuple>> Slots(Database* db,
                                                  const std::string& name) {
  std::vector<std::optional<BitemporalTuple>> out;
  Result<StoredRelation*> rel = db->GetRelation(name);
  EXPECT_TRUE(rel.ok()) << name;
  if (!rel.ok()) return out;
  (*rel)->store()->ForEachSlot([&](RowId row, const BitemporalTuple* t) {
    EXPECT_EQ(row, out.size());
    out.push_back(t == nullptr ? std::nullopt
                               : std::optional<BitemporalTuple>(*t));
  });
  return out;
}

void ExpectSameSlots(Database* indexed, Database* plain, size_t ops_done) {
  for (const char* name : kRelations) {
    SCOPED_TRACE(std::string(name) + " after " + std::to_string(ops_done) +
                 " ops");
    const std::vector<std::optional<BitemporalTuple>> a = Slots(indexed, name);
    const std::vector<std::optional<BitemporalTuple>> b = Slots(plain, name);
    ASSERT_EQ(a.size(), b.size());
    for (size_t row = 0; row < a.size(); ++row) {
      ASSERT_EQ(a[row], b[row]) << "row " << row;
    }
  }
}

TEST(DmlProbeTest, IndexedAndUnindexedReplicasStayIdentical) {
  WorkloadOptions opts;
  opts.seed = 42;
  opts.employees = 64;
  opts.departments = 8;
  opts.ops = 3000;

  Replica indexed;
  Replica plain;
  for (Replica* r : {&indexed, &plain}) {
    DatabaseOptions options;
    options.clock = &r->clock;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    r->db = std::move(*db);
  }
  for (const WorkloadOp& op : WorkloadDdl(opts)) {
    ASSERT_TRUE(indexed.Apply(op).ok()) << op.stmt;
    if (op.stmt.rfind("create index", 0) == 0) continue;
    ASSERT_TRUE(plain.Apply(op).ok()) << op.stmt;
  }
  for (const char* name : kRelations) {
    Result<StoredRelation*> a = indexed.db->GetRelation(name);
    Result<StoredRelation*> b = plain.db->GetRelation(name);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE((*a)->store()->HasAttributeIndex(0)) << name;
    EXPECT_FALSE((*b)->store()->HasAttributeIndex(0)) << name;
  }

  WorkloadGenerator gen(opts);
  for (const WorkloadOp& op : gen.SeedOps()) {
    ASSERT_TRUE(indexed.Apply(op).ok()) << op.stmt;
    ASSERT_TRUE(plain.Apply(op).ok()) << op.stmt;
  }
  WorkloadOp op;
  size_t done = 0;
  size_t fenced = 0;
  size_t affected = 0;
  while (gen.Next(&op)) {
    Result<tquel::ExecResult> a = indexed.Apply(op);
    Result<tquel::ExecResult> b = plain.Apply(op);
    ASSERT_EQ(a.status().code(), b.status().code())
        << op.stmt << ": " << a.status().ToString() << " vs "
        << b.status().ToString();
    if (a.ok()) {
      ASSERT_EQ(a->count, b->count) << op.stmt;
      affected += a->count;
    }
    if (op.fenced) ++fenced;
    if (++done % 500 == 0) {
      ExpectSameSlots(indexed.db.get(), plain.db.get(), done);
    }
  }
  ExpectSameSlots(indexed.db.get(), plain.db.get(), done);
  EXPECT_EQ(done, opts.ops);
  EXPECT_GT(fenced, 0u);
  EXPECT_GT(affected, done / 2);
}

}  // namespace
}  // namespace temporadb
