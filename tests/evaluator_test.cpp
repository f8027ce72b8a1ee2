// Evaluator tests drive TQuel text through a real Database (the evaluator's
// natural habitat), covering statement kinds and evaluation corner cases
// that the paper-scenario test doesn't reach.

#include "tquel/evaluator.h"

#include <gtest/gtest.h>

#include "core/database.h"
#include "tquel/printer.h"

namespace temporadb {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    DatabaseOptions options;
    options.clock = &clock_;
    db_ = std::move(*Database::Open(options));
    clock_.SetDate("01/01/80").ok();
  }

  Result<tquel::ExecResult> Exec(const std::string& src) {
    return db_->Execute(src);
  }
  Status ExecOk(const std::string& src) {
    Result<tquel::ExecResult> r = Exec(src);
    return r.ok() ? Status::OK() : r.status();
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(EvaluatorTest, CreateAppendRetrieve) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", n = 1)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"b\", n = 2)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.name) where x.n > 1");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].AsString(), "b");
}

TEST_F(EvaluatorTest, AppendFillsMissingAttributesWithNull) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"only\")").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.name, x.n)");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows()[0].values[1].is_null());
}

TEST_F(EvaluatorTest, AppendRejectsUnknownAttribute) {
  ASSERT_TRUE(ExecOk("create relation t (name = string)").ok());
  Result<tquel::ExecResult> r = Exec("append to t (nope = \"x\")");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EvaluatorTest, AppendCoercesDateStrings) {
  ASSERT_TRUE(ExecOk("create relation t (d = date)").ok());
  ASSERT_TRUE(ExecOk("append to t (d = \"12/15/82\")").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<Rowset> rows = db_->Query("retrieve (x.d)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows()[0].values[0].AsDate(), *Date::Parse("12/15/82"));
}

TEST_F(EvaluatorTest, ReplaceComputedExpression) {
  ASSERT_TRUE(ExecOk("create relation emp (name = string, salary = int)")
                  .ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"a\", salary = 1000)").ok());
  ASSERT_TRUE(ExecOk("range of e is emp").ok());
  Result<tquel::ExecResult> r =
      Exec("replace e (salary = e.salary * 2) where e.name = \"a\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  Result<Rowset> rows = db_->Query("retrieve (e.salary)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows()[0].values[0].AsInt(), 2000);
}

TEST_F(EvaluatorTest, DeleteWithoutWhereDeletesAll) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 1)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 2)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  Result<tquel::ExecResult> r = Exec("delete x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->count, 2u);
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 0u);
}

TEST_F(EvaluatorTest, JoinViaTwoRangeVariables) {
  ASSERT_TRUE(ExecOk("create relation emp (name = string, dept = int)")
                  .ok());
  ASSERT_TRUE(
      ExecOk("create relation dept (dname = string, did = int)").ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"a\", dept = 1)").ok());
  ASSERT_TRUE(ExecOk("append to emp (name = \"b\", dept = 2)").ok());
  ASSERT_TRUE(ExecOk("append to dept (dname = \"cs\", did = 1)").ok());
  ASSERT_TRUE(ExecOk("range of e is emp").ok());
  ASSERT_TRUE(ExecOk("range of d is dept").ok());
  Result<Rowset> rows =
      db_->Query("retrieve (e.name, d.dname) where e.dept = d.did");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->rows()[0].values[0].AsString(), "a");
  EXPECT_EQ(rows->rows()[0].values[1].AsString(), "cs");
}

TEST_F(EvaluatorTest, RetrieveIntoStoresDerived) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (n = 5)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  ASSERT_TRUE(ExecOk("retrieve into snapshot (x.n)").ok());
  Result<Rowset> derived = db_->GetDerived("snapshot");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->size(), 1u);
  EXPECT_TRUE(db_->GetDerived("missing").status().IsNotFound());
}

TEST_F(EvaluatorTest, ShowRendersStoredRepresentation) {
  ASSERT_TRUE(
      ExecOk("create temporal relation t (name = string, r = string)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", r = \"x\")").ok());
  Result<tquel::ExecResult> r = Exec("show t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->kind, tquel::ExecResult::Kind::kRows);
  std::string rendered = tquel::FormatResult(*r);
  EXPECT_NE(rendered.find("valid time"), std::string::npos);
  EXPECT_NE(rendered.find("transaction time"), std::string::npos);
  EXPECT_NE(rendered.find("temporal relation"), std::string::npos);
}

TEST_F(EvaluatorTest, ValidClauseOverridesResultPeriod) {
  ASSERT_TRUE(
      ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"a\") "
                     "valid from \"01/01/80\" to \"01/01/85\"")
                  .ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  // Default: the tuple's own period.
  Result<Rowset> def = db_->Query("retrieve (x.name)");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(*def->rows()[0].valid,
            Period(Date::Parse("01/01/80")->chronon(),
                   Date::Parse("01/01/85")->chronon()));
  // Explicit: clipped to the clause.
  Result<Rowset> explicit_period = db_->Query(
      "retrieve (x.name) valid from \"06/01/81\" to \"06/01/82\"");
  ASSERT_TRUE(explicit_period.ok());
  EXPECT_EQ(*explicit_period->rows()[0].valid,
            Period(Date::Parse("06/01/81")->chronon(),
                   Date::Parse("06/01/82")->chronon()));
  // From begin of x to end of x reconstructs the default.
  Result<Rowset> endpoints = db_->Query(
      "retrieve (x.name) valid from begin of x to end of x");
  ASSERT_TRUE(endpoints.ok()) << endpoints.status().ToString();
  EXPECT_EQ(*endpoints->rows()[0].valid, *def->rows()[0].valid);
}

TEST_F(EvaluatorTest, ValidAtProducesEventResult) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"a\")").ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  Result<Rowset> rows =
      db_->Query("retrieve (x.name) valid at begin of x");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->data_model(), TemporalDataModel::kEvent);
  EXPECT_TRUE(rows->rows()[0].valid->IsInstant());
}

TEST_F(EvaluatorTest, EmptyDefaultValidIntersectionDropsRow) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"early\") "
                     "valid from \"01/01/80\" to \"01/01/81\"")
                  .ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"late\") "
                     "valid from \"01/01/82\" to \"01/01/83\"")
                  .ok());
  ASSERT_TRUE(ExecOk("range of a is h").ok());
  ASSERT_TRUE(ExecOk("range of b is h").ok());
  // Pairs whose valid periods are disjoint vanish from the result.
  Result<Rowset> rows = db_->Query(
      "retrieve (n1 = a.name, n2 = b.name) where a.name != b.name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 0u);
}

TEST_F(EvaluatorTest, AsOfThroughSelectsVersionRange) {
  ASSERT_TRUE(
      ExecOk("create rollback relation r (name = string)").ok());
  clock_.SetDate("01/01/80").ok();
  ASSERT_TRUE(ExecOk("append to r (name = \"v1\")").ok());
  ASSERT_TRUE(ExecOk("range of x is r").ok());
  clock_.SetDate("01/01/81").ok();
  ASSERT_TRUE(ExecOk("replace x (name = \"v2\")").ok());
  clock_.SetDate("01/01/82").ok();
  ASSERT_TRUE(ExecOk("replace x (name = \"v3\")").ok());
  // A single as-of sees one version; through spans several.
  EXPECT_EQ(db_->Query("retrieve (x.name) as of \"06/01/80\"")->size(), 1u);
  Result<Rowset> range = db_->Query(
      "retrieve (x.name) as of \"06/01/80\" through \"06/01/81\"");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(range->size(), 2u);
}

TEST_F(EvaluatorTest, DmlErrorsInsidePredicatesPropagate) {
  ASSERT_TRUE(ExecOk("create relation t (name = string, n = int)").ok());
  ASSERT_TRUE(ExecOk("append to t (name = \"a\", n = 1)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  // Comparing a string attribute to an int is a type error at evaluation.
  Result<tquel::ExecResult> r = Exec("delete x where x.name = 3");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  // The failed statement must not have deleted anything (auto-abort).
  EXPECT_EQ(db_->Query("retrieve (x.n)")->size(), 1u);
}

// An index probe only narrows the candidates, so it must not change a
// statement's outcome: a where clause that fails on some row fails whether
// the relation is indexed or not, and whether the retrieve runs directly
// (which may probe) or at a snapshot (which never does).
TEST_F(EvaluatorTest, IndexProbeNeverHidesAnIntegerOverflow) {
  // Integer arithmetic can overflow, so a where clause holding any is not
  // "cannot fail": the indexed direct path, the snapshot path and an
  // unindexed relation must agree status for status.
  for (const char* rel : {"ix", "ux"}) {
    ASSERT_TRUE(ExecOk(std::string("create relation ") + rel +
                       " (k = int, n = int)")
                    .ok());
    for (const char* row :
         {"(k = 1, n = 9223372036854775807)", "(k = 2, n = 5)"}) {
      ASSERT_TRUE(ExecOk(std::string("append to ") + rel + " " + row).ok());
    }
  }
  ASSERT_TRUE(ExecOk("create index on ix (k)").ok());
  ASSERT_TRUE(ExecOk("range of x is ix").ok());
  ASSERT_TRUE(ExecOk("range of y is ux").ok());
  for (const char* where : {"@.k = 1 and @.n + 1 > 0",
                            "@.k = 999 and 9223372036854775807 + 1 > 0",
                            "9223372036854775807 * 2 > 0 and @.k = 2",
                            "@.k = 2 and @.n - 1 > 0"}) {
    SCOPED_TRACE(where);
    std::string query = std::string("retrieve (@.k) where ") + where;
    auto on = [&query](char var) {
      std::string out = query;
      for (char& c : out) {
        if (c == '@') c = var;
      }
      return out;
    };
    Result<Rowset> direct = db_->Query(on('x'));
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok());
    Result<Rowset> pinned = db_->QueryAtSnapshot(*snap, on('x'));
    Result<Rowset> unindexed = db_->Query(on('y'));
    EXPECT_EQ(direct.status().code(), unindexed.status().code());
    EXPECT_EQ(pinned.status().code(), unindexed.status().code());
    if (direct.ok() && pinned.ok() && unindexed.ok()) {
      EXPECT_EQ(direct->size(), unindexed->size());
      EXPECT_EQ(pinned->size(), unindexed->size());
    }
  }
}

TEST_F(EvaluatorTest, IndexProbeNeverHidesAnEvaluationError) {
  for (const char* rel : {"sal", "usal"}) {
    ASSERT_TRUE(ExecOk(std::string("create temporal relation ") + rel +
                       " (emp = int, amount = int)")
                    .ok());
    for (const char* row :
         {"(emp = 1, amount = 1000)", "(emp = 2, amount = 2000)",
          "(emp = 3)"}) {  // amount is null
      ASSERT_TRUE(ExecOk(std::string("append to ") + rel + " " + row).ok());
    }
  }
  ASSERT_TRUE(ExecOk("create index on sal (emp)").ok());
  ASSERT_TRUE(ExecOk("range of s is sal").ok());
  ASSERT_TRUE(ExecOk("range of u is usal").ok());

  auto on = [](const std::string& where, const char* var) {
    std::string out = where;
    for (size_t at = out.find('@'); at != std::string::npos;
         at = out.find('@')) {
      out.replace(at, 1, var);
    }
    return out;
  };
  const std::vector<std::string> wheres = {
      "@.emp = 999 and @.amount < \"x\"",  // cannot compare int with string
      "@.emp = 2 and @.amount / 0 > 1",     // division by zero
      "@.emp = 999 and @.amount * 2 > 1",   // null amount is not numeric
      "@.emp = 999 or @.amount < \"x\"",
      "@.emp = 2 and @.amount < 5000",
      "@.emp = 3 and not @.amount > 1 + 2",
      "2 = @.emp",
  };
  for (const std::string& where : wheres) {
    SCOPED_TRACE(where);
    const std::string query = "retrieve (@.emp) where " + where;
    Result<Rowset> direct = db_->Query(on(query, "s"));
    Result<ReadSnapshot> snap = db_->BeginReadSnapshot();
    ASSERT_TRUE(snap.ok());
    Result<Rowset> pinned = db_->QueryAtSnapshot(*snap, on(query, "s"));
    Result<Rowset> unindexed = db_->Query(on(query, "u"));
    EXPECT_EQ(direct.status().code(), unindexed.status().code());
    EXPECT_EQ(pinned.status().code(), unindexed.status().code());
    if (direct.ok() && pinned.ok() && unindexed.ok()) {
      EXPECT_EQ(direct->size(), unindexed->size());
      EXPECT_EQ(pinned->size(), unindexed->size());
    }
  }
  // The DML probe follows the same rule, and a `when` clause rules it out:
  // emp 4's validity misses 1990, so `begin of` fails on that row alone.
  for (const char* rel : {"sal", "usal"}) {
    ASSERT_TRUE(ExecOk(std::string("append to ") + rel +
                       " (emp = 4, amount = 1) valid from \"01/01/70\" to "
                       "\"01/01/75\"")
                    .ok());
  }
  const std::string stmt =
      "delete @ where @.emp = 1 when begin of (@ overlap \"01/01/90\") "
      "precede \"01/01/95\"";
  Result<tquel::ExecResult> probed = Exec(on(stmt, "s"));
  Result<tquel::ExecResult> scanned = Exec(on(stmt, "u"));
  EXPECT_FALSE(scanned.ok());
  EXPECT_EQ(probed.status().code(), scanned.status().code());
  for (const std::string& where : wheres) {
    SCOPED_TRACE(where);
    const std::string stmt = "replace @ (amount = 7) where " + where;
    Result<tquel::ExecResult> indexed = Exec(on(stmt, "s"));
    Result<tquel::ExecResult> unindexed = Exec(on(stmt, "u"));
    ASSERT_EQ(indexed.status().code(), unindexed.status().code());
    if (indexed.ok()) {
      EXPECT_EQ(indexed->count, unindexed->count);
    }
  }
}

TEST_F(EvaluatorTest, CorrectStatementOnHistorical) {
  ASSERT_TRUE(ExecOk("create historical relation h (name = string)").ok());
  ASSERT_TRUE(ExecOk("append to h (name = \"err\")").ok());
  ASSERT_TRUE(ExecOk("range of x is h").ok());
  Result<tquel::ExecResult> r = Exec("correct x where x.name = \"err\"");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count, 1u);
  EXPECT_EQ(db_->Query("retrieve (x.name)")->size(), 0u);
}

TEST_F(EvaluatorTest, RangeOverUnknownRelationFails) {
  Result<tquel::ExecResult> r = Exec("range of x is nothing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(EvaluatorTest, DestroyDropsRangesToo) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  ASSERT_TRUE(ExecOk("range of x is t").ok());
  ASSERT_TRUE(ExecOk("destroy t").ok());
  EXPECT_FALSE(Exec("retrieve (x.n)").ok());
}

TEST_F(EvaluatorTest, FormatResultForCounts) {
  ASSERT_TRUE(ExecOk("create relation t (n = int)").ok());
  Result<tquel::ExecResult> r = Exec("append to t (n = 1)");
  ASSERT_TRUE(r.ok());
  std::string rendered = tquel::FormatResult(*r);
  EXPECT_NE(rendered.find("appended 1 tuple"), std::string::npos);
}

}  // namespace
}  // namespace temporadb
