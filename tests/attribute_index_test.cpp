// Secondary attribute indexes: version-store maintenance across the whole
// mutation/undo/replay surface, the `create index` TQuel statement, the
// evaluator's equality fast path (which must be invisible semantically),
// and the index declarations surviving a reopen through the checkpoint or
// the WAL.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/database.h"
#include "core/paper_scenario.h"
#include "tests/relation_test_util.h"

namespace temporadb {
namespace {

class AttributeIndexStoreTest : public testutil::RelationFixture {
 protected:
  AttributeIndexStoreTest() { MakeRelation(TemporalClass::kTemporal); }

  std::vector<RowId> Lookup(const char* name) {
    Result<std::vector<RowId>> rows =
        relation_->store()->LookupAttribute(0, Value(name));
    EXPECT_TRUE(rows.ok());
    return rows.ok() ? *rows : std::vector<RowId>{};
  }
};

TEST_F(AttributeIndexStoreTest, BackfillsExistingRows) {
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  ASSERT_TRUE(Append("01/01/80", "b", "2").ok());
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  EXPECT_EQ(Lookup("a").size(), 1u);
  EXPECT_EQ(Lookup("b").size(), 1u);
  EXPECT_TRUE(Lookup("zzz").empty());
}

TEST_F(AttributeIndexStoreTest, CreateIndexValidation) {
  EXPECT_TRUE(relation_->CreateIndex("nope").IsInvalidArgument());
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  EXPECT_EQ(relation_->CreateIndex("name").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(relation_->store()->HasAttributeIndex(0));
  EXPECT_FALSE(relation_->store()->HasAttributeIndex(1));
  EXPECT_TRUE(relation_->store()
                  ->LookupAttribute(1, Value("x"))
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
}

TEST_F(AttributeIndexStoreTest, MaintainedAcrossMutations) {
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  // A temporal replace closes and appends new versions; all versions of
  // "a" stay indexed (the index is over live versions, not current ones).
  ASSERT_TRUE(Replace("02/01/80", "a", "2", Since("01/01/80")).ok());
  EXPECT_EQ(Lookup("a").size(), 2u);
}

TEST_F(AttributeIndexStoreTest, UndoRestoresIndex) {
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1").ok());
  clock_.SetDate("02/01/80").ok();
  Result<Transaction*> txn = manager_.Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(relation_->Append(*txn, {Value("b"), Value("2")},
                                std::nullopt)
                  .ok());
  ASSERT_TRUE(
      relation_->DeleteWhere(*txn, NameIs("a"), Period::All()).ok());
  ASSERT_TRUE(manager_.Abort(*txn).ok());
  EXPECT_EQ(Lookup("a").size(), 1u);
  EXPECT_TRUE(Lookup("b").empty());
}

TEST_F(AttributeIndexStoreTest, HistoricalPhysicalOpsMaintainIndex) {
  MakeRelation(TemporalClass::kHistorical);
  ASSERT_TRUE(relation_->CreateIndex("name").ok());
  ASSERT_TRUE(Append("01/01/80", "a", "1",
                     Between("01/01/80", "01/01/85")).ok());
  // Mid-period delete: in-place update + append (split).
  ASSERT_TRUE(
      Delete("06/01/80", "a", Between("01/01/82", "01/01/83")).ok());
  EXPECT_EQ(Lookup("a").size(), 2u);
  // Physical erase drops both fragments.
  size_t count = 0;
  ASSERT_TRUE(AtDate("07/01/80", [&](Transaction* txn) -> Status {
                TDB_ASSIGN_OR_RETURN(count,
                                     relation_->CorrectErase(txn,
                                                             NameIs("a")));
                return Status::OK();
              }).ok());
  EXPECT_EQ(count, 2u);
  EXPECT_TRUE(Lookup("a").empty());
}

class AttributeIndexQueryTest : public ::testing::Test {
 protected:
  AttributeIndexQueryTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(AttributeIndexQueryTest, CreateIndexStatement) {
  ASSERT_TRUE(db_->Execute("create relation t (name = string)").ok());
  Result<tquel::ExecResult> r = db_->Execute("create index on t (name)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->message.find("indexed"), std::string::npos);
  EXPECT_TRUE(db_->Execute("create index on t (name)").status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      db_->Execute("create index on t (nope)").status().IsInvalidArgument());
  EXPECT_TRUE(
      db_->Execute("create index on missing (x)").status().IsNotFound());
}

TEST_F(AttributeIndexQueryTest, PaperQueriesIdenticalWithAndWithoutIndex) {
  // Build the paper's temporal faculty twice — indexed and not — and check
  // the bitemporal query answers are identical.
  auto run = [&](bool indexed) -> std::string {
    ManualClock clock;
    DatabaseOptions options;
    options.clock = &clock;
    auto db = std::move(*Database::Open(options));
    EXPECT_TRUE(paper::BuildTemporalFaculty(db.get(), &clock).ok());
    if (indexed) {
      EXPECT_TRUE(db->Execute("create index on faculty (name)").ok());
    }
    EXPECT_TRUE(db->Execute("range of f1 is faculty").ok());
    EXPECT_TRUE(db->Execute("range of f2 is faculty").ok());
    Result<Rowset> rows = db->Query(
        "retrieve (f1.rank) where f1.name = \"Merrie\" and "
        "f2.name = \"Tom\" when f1 overlap start of f2 as of \"12/10/82\"");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->Render() : "error";
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(AttributeIndexQueryTest, VisibilityRespectedThroughIndexProbe) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(
      db_->Execute("create rollback relation r (name = string)").ok());
  ASSERT_TRUE(db_->Execute("create index on r (name)").ok());
  ASSERT_TRUE(db_->Execute("append to r (name = \"x\")").ok());
  ASSERT_TRUE(db_->Execute("range of v is r").ok());
  clock_.SetDate("02/01/80").ok();
  ASSERT_TRUE(db_->Execute("delete v where v.name = \"x\"").ok());
  // The index still holds the closed version; the current-state query must
  // not see it...
  EXPECT_EQ(db_->Query("retrieve (v.name) where v.name = \"x\"")->size(),
            0u);
  // ...while rollback does.
  EXPECT_EQ(db_->Query("retrieve (v.name) where v.name = \"x\" "
                       "as of \"01/15/80\"")
                ->size(),
            1u);
}

TEST_F(AttributeIndexQueryTest, IntAndDateKeys) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(db_->Execute(
                    "create relation t (n = int, d = date, s = string)")
                  .ok());
  ASSERT_TRUE(db_->Execute("create index on t (n)").ok());
  ASSERT_TRUE(db_->Execute("create index on t (d)").ok());
  ASSERT_TRUE(db_->Execute(
                    "append to t (n = 7, d = \"12/15/82\", s = \"a\")")
                  .ok());
  ASSERT_TRUE(db_->Execute(
                    "append to t (n = 8, d = \"01/01/83\", s = \"b\")")
                  .ok());
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.s) where x.n = 7")->size(), 1u);
  // Date equality against a string literal goes through coercion and still
  // probes the index.
  Result<Rowset> by_date =
      db_->Query("retrieve (x.s) where x.d = \"01/01/83\"");
  ASSERT_TRUE(by_date.ok()) << by_date.status().ToString();
  ASSERT_EQ(by_date->size(), 1u);
  EXPECT_EQ(by_date->rows()[0].values[0].AsString(), "b");
}

TEST_F(AttributeIndexQueryTest, NonEqualityPredicatesUnaffected) {
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(db_->Execute("create relation t (n = int)").ok());
  ASSERT_TRUE(db_->Execute("create index on t (n)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db_->Execute("append to t (n = " + std::to_string(i) + ")").ok());
  }
  ASSERT_TRUE(db_->Execute("range of x is t").ok());
  EXPECT_EQ(db_->Query("retrieve (x.n) where x.n > 6")->size(), 3u);
  EXPECT_EQ(db_->Query("retrieve (x.n) where x.n = 3 or x.n = 5")->size(),
            2u);
}

// --- Persistence ----------------------------------------------------------

// A persistent database and an in-memory twin fed the same statements; the
// persistent one is reopened (after a checkpoint, or from the WAL alone) and
// must keep its indexes and answer retrieves and DML exactly like the twin.
class AttributeIndexPersistenceTest : public ::testing::TestWithParam<bool> {
 protected:
  AttributeIndexPersistenceTest() {
    dir_ = testing::TempDir() + "/tdb_attr_index_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter_++);
    std::filesystem::remove_all(dir_);
    EXPECT_TRUE(clock_.SetDate("01/01/80").ok());
    twin_ = OpenDb("");
    db_ = OpenDb(dir_);
  }
  ~AttributeIndexPersistenceTest() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<Database> OpenDb(const std::string& path) {
    DatabaseOptions options;
    options.path = path;
    options.clock = &clock_;
    Result<std::unique_ptr<Database>> db = Database::Open(options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return db.ok() ? std::move(*db) : nullptr;
  }

  // Runs `stmt` on both databases; both must agree on the outcome.
  void Exec(const std::string& stmt) {
    Result<tquel::ExecResult> a = db_->Execute(stmt);
    Result<tquel::ExecResult> b = twin_->Execute(stmt);
    ASSERT_TRUE(a.ok()) << stmt << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << stmt << ": " << b.status().ToString();
    EXPECT_EQ(a->count, b->count) << stmt;
    EXPECT_EQ(a->message, b->message) << stmt;
  }

  void ExpectSameAnswer(const std::string& query) {
    Result<Rowset> a = db_->Query(query);
    Result<Rowset> b = twin_->Query(query);
    ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
    EXPECT_EQ(a->Render(), b->Render()) << query;
  }

  static bool Indexed(Database* db, const char* relation, size_t attr) {
    Result<StoredRelation*> rel = db->GetRelation(relation);
    return rel.ok() && (*rel)->store()->HasAttributeIndex(attr);
  }

  static int counter_;
  std::string dir_;
  ManualClock clock_;
  std::unique_ptr<Database> twin_;
  std::unique_ptr<Database> db_;
};

int AttributeIndexPersistenceTest::counter_ = 0;

TEST_P(AttributeIndexPersistenceTest, IndexesSurviveReopen) {
  const bool checkpoint = GetParam();
  Exec("create temporal relation t (emp = int, name = string, n = int)");
  Exec("create historical relation h (emp = int, dept = string)");
  Exec("create index on t (emp)");
  Exec("create index on t (n)");
  Exec("create index on h (emp)");
  Exec("range of x is t");
  Exec("range of y is h");
  for (int i = 0; i < 30; ++i) {
    if (i % 4 == 0) clock_.AdvanceDays(3);
    const std::string emp = std::to_string(i % 7);
    Exec("append to t (emp = " + emp + ", name = \"e" + std::to_string(i) +
         "\", n = " + std::to_string(i) + ")");
    Exec("append to h (emp = " + emp + ", dept = \"d" +
         std::to_string(i % 3) + "\") valid from \"01/01/79\" to \"inf\"");
  }
  clock_.AdvanceDays(1);
  Exec("replace x (name = \"moved\") where x.emp = 3");
  Exec("delete y where y.emp = 4");
  if (checkpoint) {
    ASSERT_TRUE(db_->Checkpoint().ok());
  }
  // A statement after the checkpoint reaches the reopened database through
  // WAL replay in both variants.
  Exec("delete x where x.emp = 5");

  db_.reset();
  db_ = OpenDb(dir_);
  ASSERT_NE(db_, nullptr);
  ASSERT_TRUE(Indexed(db_.get(), "t", 0));
  EXPECT_FALSE(Indexed(db_.get(), "t", 1));
  EXPECT_TRUE(Indexed(db_.get(), "t", 2));
  EXPECT_TRUE(Indexed(db_.get(), "h", 0));
  EXPECT_EQ(db_->catalog().GetRelation("t")->indexed_attrs,
            (std::vector<uint32_t>{0, 2}));
  // The rebuilt B+-tree holds exactly the twin's postings.
  const VersionStore* reopened = (*db_->GetRelation("t"))->store();
  const VersionStore* twin = (*twin_->GetRelation("t"))->store();
  for (int64_t emp = 0; emp < 8; ++emp) {
    EXPECT_EQ(*reopened->LookupAttribute(0, Value(emp)),
              *twin->LookupAttribute(0, Value(emp)))
        << emp;
  }
  // A second declaration is still refused.
  EXPECT_EQ(db_->Execute("create index on t (emp)").status().code(),
            StatusCode::kAlreadyExists);

  Exec("range of x is t");
  Exec("range of y is h");
  ExpectSameAnswer("retrieve (x.name, x.n) where x.emp = 3");
  ExpectSameAnswer("retrieve (x.name) where x.emp = 3 as of \"01/05/80\"");
  ExpectSameAnswer("retrieve (x.emp, x.name)");
  ExpectSameAnswer("retrieve (y.dept) where y.emp = 2");
  clock_.AdvanceDays(1);
  Exec("replace x (n = 100) where x.emp = 2");
  Exec("delete y where y.emp = 6");
  Exec("replace y (dept = \"z\") where y.emp = 1");
  ExpectSameAnswer("retrieve (x.name, x.n) where x.emp = 2");
  ExpectSameAnswer("retrieve (y.emp, y.dept)");
}

INSTANTIATE_TEST_SUITE_P(CheckpointOrWal, AttributeIndexPersistenceTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Checkpoint" : "WalReplay";
                         });

}  // namespace
}  // namespace temporadb
