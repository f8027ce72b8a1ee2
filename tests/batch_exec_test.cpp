// Executor differential against the brute-force reference evaluator
// (tests/reference_eval.h): every scan predicate shape, at batch sizes
// {1, 7, 1024} and thread counts {0, 1, 2, 4, 8}, must yield exactly the
// versions `ReferenceScan` selects; every TQuel
// clause combination over all four temporal classes must return exactly
// the rows `ReferenceRetrieve` computes, in the same order; and pushing
// time windows down (or not) must not change a query's answer.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/database.h"
#include "exec/thread_pool.h"
#include "temporal/version_store.h"
#include "tests/reference_eval.h"
#include "txn/clock.h"
#include "txn/txn_manager.h"

namespace temporadb {
namespace {

using testutil::DrainScan;
using testutil::ReferenceRetrieve;
using testutil::ReferenceScan;
using testutil::SameRows;

// --- Store level: BatchScan against ReferenceScan --------------------------

// Seeded random bitemporal history: appends with half-open or bounded valid
// periods, interleaved with transaction-time closes of random earlier rows
// (failing on closed rows is part of the chaos).
void PopulateStore(VersionStore* store, size_t n_ops, uint64_t seed) {
  ManualClock clock;
  TxnManager manager(&clock);
  Random rng(seed);
  int64_t day = 1000;
  size_t op = 0;
  while (op < n_ops) {
    clock.SetTime(Chronon(day));
    Transaction* txn = *manager.Begin();
    size_t batch = 1 + rng.Uniform(50);
    for (size_t i = 0; i < batch && op < n_ops; ++i, ++op) {
      if (store->version_count() > 10 && rng.OneIn(4)) {
        RowId row = rng.Uniform(store->version_count());
        (void)store->CloseTxn(txn, row, Chronon(day));
      } else {
        BitemporalTuple t;
        t.values = {Value("e" + std::to_string(rng.Uniform(64))),
                    Value(static_cast<int64_t>(rng.Uniform(100000)))};
        int64_t from = 900 + static_cast<int64_t>(rng.Uniform(400));
        t.valid = rng.OneIn(2)
                      ? Period::From(Chronon(from))
                      : Period(Chronon(from),
                               Chronon(from + 1 +
                                       static_cast<int64_t>(rng.Uniform(90))));
        t.txn = Period::From(Chronon(day));
        ASSERT_TRUE(store->Append(txn, std::move(t)).ok());
      }
    }
    ASSERT_TRUE(manager.Commit(txn).ok());
    day += 1 + static_cast<int64_t>(rng.Uniform(3));
  }
}

// One scan shape: the predicates that define its answer.
struct Probe {
  const char* name;
  BatchPredicates preds;
};

std::vector<Probe> Probes() {
  const Chronon at(1100);
  const Period txn_window(Chronon(1050), Chronon(1200));
  const Period valid_window(Chronon(1000), Chronon(1060));
  const Period wide(Chronon(950), Chronon(1300));
  return {
      {"all", {}},
      {"current", {.txn_current = true}},
      {"as of", {.txn_contains = at}},
      {"txn overlapping", {.txn_overlaps = txn_window}},
      {"valid during", {.valid_overlaps = valid_window}},
      {"valid during, current", {.valid_overlaps = wide, .txn_current = true}},
      {"as of, valid residual",
       {.valid_overlaps = valid_window, .txn_contains = at}},
  };
}

void ExpectMatchesReference(const VersionStore& store,
                            const BatchPredicates& preds,
                            const std::string& label) {
  std::string diff;
  EXPECT_TRUE(SameRows(DrainScan(store.BatchScan(preds)),
                       ReferenceScan(store, preds), &diff))
      << label << ": " << diff;
}

TEST(BatchScanReferenceTest, EveryPredicateMatchesAcrossBatchSizesAndThreads) {
  VersionStore store;
  PopulateStore(&store, 5000, /*seed=*/11);
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_GT(ReferenceScan(store, {.valid_overlaps = Period(Chronon(1000),
                                                           Chronon(1060))})
                .size(),
            10u);
  for (size_t batch_rows : {1u, 7u, 1024u}) {
    store.ConfigureBatchRows(batch_rows);
    // 0: no pool at all; otherwise min_rows=1 forces the morsel path even
    // for tiny candidate sets.
    for (size_t threads : {0u, 1u, 2u, 4u, 8u}) {
      std::unique_ptr<exec::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
      store.ConfigureParallel(pool.get(), 1);
      for (const Probe& p : Probes()) {
        const std::string label = std::string(p.name) +
                                  ", batch_rows=" + std::to_string(batch_rows) +
                                  ", threads=" + std::to_string(threads);
        ExpectMatchesReference(store, p.preds, label);
        VersionBatchScan scan = store.BatchScan(p.preds);
        VersionBatch batch;
        while (scan.Next(&batch)) {
          ASSERT_FALSE(batch.empty()) << label;
          ASSERT_LE(batch.size(), batch_rows) << label;
        }
      }
      store.ConfigureParallel(nullptr);
    }
  }
}

// Grows a randomized bitemporal history through the relation API:
// retroactive appends mixed with logical deletes and replaces, the clock
// advancing between transactions.
void GrowRandomHistory(Database* db, ManualClock* clock, StoredRelation* rel,
                       uint64_t seed, int steps) {
  Random rng(seed);
  for (int step = 0; step < steps; ++step) {
    clock->AdvanceDays(static_cast<int64_t>(rng.UniformRange(1, 4)));
    Status s = db->WithTransaction([&](Transaction* txn) -> Status {
      uint64_t op = rng.Uniform(3);
      if (op == 0 || rel->store()->live_count() < 6) {
        int64_t from = rng.UniformRange(0, 400);
        int64_t len = rng.UniformRange(1, 90);
        return rel->Append(
            txn, {Value(rng.NextName(4)), Value(rng.UniformRange(0, 5))},
            Period(Chronon(from), Chronon(from + len)));
      }
      const int64_t pivot = rng.UniformRange(0, 5);
      TuplePredicate pred = [pivot](const std::vector<Value>& v) {
        return v[1].AsInt() == pivot;
      };
      if (op == 1) {
        return rel->DeleteWhere(txn, pred, std::nullopt).status();
      }
      UpdateSpec updates{ConstUpdate(1, Value(rng.UniformRange(0, 5)))};
      return rel->ReplaceWhere(txn, pred, updates, std::nullopt).status();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

TEST(PushdownEquivalence, WindowScansMatchReferenceOnRandomHistories) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    ManualClock clock{Chronon(0)};
    DatabaseOptions options;
    options.clock = &clock;
    std::unique_ptr<Database> db = std::move(*Database::Open(options));
    ASSERT_TRUE(
        db->Execute("create temporal relation h (name = string, n = int)")
            .ok());
    StoredRelation* rel = *db->GetRelation("h");
    GrowRandomHistory(db.get(), &clock, rel, seed, 120);
    const VersionStore& store = *rel->store();
    Random rng(seed * 1000);
    for (int trial = 0; trial < 25; ++trial) {
      const Chronon t(rng.UniformRange(0, 500));
      const int64_t qb = rng.UniformRange(0, 450);
      const Period q(Chronon(qb), Chronon(qb + rng.UniformRange(1, 60)));
      ExpectMatchesReference(store, {.txn_contains = t},
                             "as of " + t.ToString());
      ExpectMatchesReference(store, {.txn_overlaps = q},
                             "txn overlapping " + q.ToString());
      ExpectMatchesReference(store, {.valid_overlaps = q},
                             "valid during " + q.ToString());
    }
    ExpectMatchesReference(store, {.txn_current = true}, "current");
  }
}

TEST(PushdownEquivalence, RelationScanIgnoresWindowsItCannotUse) {
  ManualClock clock{Chronon(0)};
  DatabaseOptions options;
  options.clock = &clock;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  ASSERT_TRUE(db->Execute("create relation s (n = int)").ok());
  StoredRelation* rel = *db->GetRelation("s");
  ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
                  return rel->Append(txn, {Value(int64_t{1})}, std::nullopt);
                }).ok());
  ScanSpec spec;
  spec.asof = Period::At(Chronon(100));
  spec.valid_during = Period(Chronon(0), Chronon(1));
  // A static relation has no time to slice by; the windows must not drop
  // its (timeless) tuples.
  EXPECT_EQ(DrainScan(rel->BatchScan(spec)).size(), 1u);
}

// --- Query level: TQuel over every temporal class --------------------------

// Builds a database holding one relation of each temporal class, populated
// by the same seeded script (appends with randomized valid periods plus
// scattered deletes, so rollback/bitemporal relations accrue closed
// transaction periods and valid-time relations accrue truncations).
std::unique_ptr<Database> BuildFourClassDb(ManualClock* clock,
                                           const VersionStoreOptions& store,
                                           size_t max_threads) {
  DatabaseOptions options;
  options.clock = clock;
  options.store_options = store;
  options.max_threads = max_threads;
  std::unique_ptr<Database> db = std::move(*Database::Open(options));
  EXPECT_TRUE(
      db->Execute("create relation snap (name = string, n = int)").ok());
  EXPECT_TRUE(
      db->Execute("create rollback relation roll (name = string, n = int)")
          .ok());
  EXPECT_TRUE(
      db->Execute("create historical relation hist (name = string, n = int)")
          .ok());
  EXPECT_TRUE(
      db->Execute("create temporal relation bitemp (name = string, n = int)")
          .ok());

  Random rng(4242);
  const char* relations[] = {"snap", "roll", "hist", "bitemp"};
  const bool has_valid[] = {false, false, true, true};
  for (int i = 0; i < 150; ++i) {
    clock->SetTime(Chronon(4000 + i * 2));
    size_t which = rng.Uniform(4);
    const std::string rel = relations[which];
    const std::string name = "e" + std::to_string(rng.Uniform(12));
    if (rng.OneIn(5) && i > 20) {
      std::string stmt = "delete " + rel + " where " + rel + ".name = \"" +
                         name + "\"";
      (void)db->Execute(stmt);  // Deleting a missing name is fine.
      continue;
    }
    std::string stmt = "append to " + rel + " (name = \"" + name +
                       "\", n = " +
                       std::to_string(static_cast<int64_t>(rng.Uniform(1000))) +
                       ")";
    if (has_valid[which]) {
      int64_t from = 3900 + static_cast<int64_t>(rng.Uniform(300));
      stmt += " valid from \"" + Chronon(from).ToString() + "\" to ";
      stmt += rng.OneIn(3)
                  ? std::string("\"inf\"")
                  : "\"" +
                        Chronon(from + 20 +
                                static_cast<int64_t>(rng.Uniform(150)))
                            .ToString() +
                        "\"";
    }
    EXPECT_TRUE(db->Execute(stmt).ok()) << stmt;
  }
  for (const char* rel : relations) {
    std::string range = "range of ";
    range += rel[0];
    range += " is ";
    range += rel;
    EXPECT_TRUE(db->Execute(range).ok()) << range;
  }
  return db;
}

// Every clause combination each temporal class admits (where / when /
// valid / as of), plus a when-join; dates land inside the populated
// windows so each query returns rows.
std::vector<std::string> AllClauseQueries() {
  const std::string kWhen = " when $ overlap \"" + Chronon(4010).ToString() +
                            "\"";
  const std::string kValid = " valid from \"" + Chronon(3950).ToString() +
                             "\" to \"" + Chronon(4150).ToString() + "\"";
  const std::string kAsOf = " as of \"" + Chronon(4180).ToString() + "\"";
  const std::string kThrough = " as of \"" + Chronon(4100).ToString() +
                               "\" through \"" + Chronon(4200).ToString() +
                               "\"";
  const std::string kWhere = " where $.n < 500";
  std::vector<std::string> queries;
  auto add = [&queries](char var, const std::string& clauses) {
    std::string q = "retrieve ($.name, $.n)" + clauses;
    std::string out;
    for (char c : q) {
      if (c == '$') {
        out += var;
      } else {
        out += c;
      }
    }
    queries.push_back(out);
  };
  // Static: bare and where.
  add('s', "");
  add('s', kWhere);
  // Rollback: adds as-of.
  add('r', "");
  add('r', kWhere);
  add('r', kAsOf);
  add('r', kWhere + kAsOf);
  add('r', kThrough);
  // Historical: adds when and valid.
  add('h', "");
  add('h', kWhere);
  add('h', kWhen);
  add('h', kValid);
  add('h', kWhere + kWhen);
  add('h', kValid + kWhen);
  add('h', kWhere + kValid + kWhen);
  // Bitemporal: every clause at once.
  add('b', "");
  add('b', kWhere);
  add('b', kWhen);
  add('b', kValid);
  add('b', kAsOf);
  add('b', kThrough);
  add('b', kWhere + kWhen);
  add('b', kWhen + kAsOf);
  add('b', kValid + kWhen + kAsOf);
  add('b', kWhere + kValid + kWhen + kAsOf);
  // When-joins across classes: a dynamic (index-nested-loop) inner side,
  // and one under a rollback window.
  queries.push_back(
      "retrieve (h.name, b.n) where h.name = b.name when h overlap b");
  queries.push_back("retrieve (x = b.name, y = r.name) where b.n < r.n" +
                    kAsOf);
  return queries;
}

TEST(BatchDatabaseTest, QueriesMatchReferenceAcrossBatchSizesAndThreads) {
  const std::vector<std::string> queries = AllClauseQueries();
  for (size_t batch_rows : {1u, 7u, 1024u}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      const std::string label = " (batch_rows=" + std::to_string(batch_rows) +
                                ", threads=" + std::to_string(threads) + ")";
      ManualClock clock;
      VersionStoreOptions options;
      options.batch_rows = batch_rows;
      if (threads > 1) {
        options.parallel_scan = true;
        options.parallel_min_rows = 1;
      }
      std::unique_ptr<Database> db =
          BuildFourClassDb(&clock, options, threads);
      size_t nonempty = 0;
      for (const std::string& q : queries) {
        Result<Rowset> want = ReferenceRetrieve(db.get(), q);
        ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
        if (want->size() > 0) ++nonempty;
        Result<Rowset> got = db->Query(q);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
        std::string diff;
        EXPECT_TRUE(SameRows(*got, *want, &diff)) << q << label << ": " << diff;
      }
      // The sweep must actually exercise data, not vacuous empties.
      ASSERT_GT(nonempty, queries.size() / 2);
    }
  }
}

// --- Query level: pushdown on, pushdown off, and the reference ------------

// Two databases fed the same statements, one pushing time windows into the
// scans and one filtering above them.  Both must render identically (same
// rows, same order, same periods) and equal the reference.
class QueryPair {
 public:
  QueryPair() {
    for (int i = 0; i < 2; ++i) {
      DatabaseOptions options;
      options.clock = &clock_;
      options.store_options.time_pushdown = (i == 0);
      db_[i] = std::move(*Database::Open(options));
    }
  }

  void Exec(const std::string& source) {
    for (auto& db : db_) {
      Result<tquel::ExecResult> r = db->Execute(source);
      ASSERT_TRUE(r.ok()) << source << ": " << r.status().ToString();
    }
  }

  void ExpectSameRows(const std::string& query) {
    Result<Rowset> on = db_[0]->Query(query);
    Result<Rowset> off = db_[1]->Query(query);
    Result<Rowset> want = ReferenceRetrieve(db_[0].get(), query);
    ASSERT_TRUE(on.ok()) << query << ": " << on.status().ToString();
    ASSERT_TRUE(off.ok()) << query << ": " << off.status().ToString();
    ASSERT_TRUE(want.ok()) << query << ": " << want.status().ToString();
    EXPECT_EQ(on->Render(), off->Render()) << query;
    std::string diff;
    EXPECT_TRUE(SameRows(*on, *want, &diff)) << query << ": " << diff;
  }

  ManualClock clock_{Chronon(0)};
  std::unique_ptr<Database> db_[2];
};

TEST(PushdownEquivalence, TemporalQueriesMatchWithPushdownOff) {
  QueryPair pair;
  ASSERT_TRUE(pair.clock_.SetDate("01/01/80").ok());
  pair.Exec("create temporal relation faculty (name = string, rank = string)");
  pair.Exec(
      "append to faculty (name = \"jane\", rank = \"assistant\") "
      "valid from \"09/01/77\" to \"12/01/82\"");
  ASSERT_TRUE(pair.clock_.SetDate("06/01/81").ok());
  pair.Exec(
      "append to faculty (name = \"merrie\", rank = \"associate\") "
      "valid from \"06/01/81\" to \"09/01/84\"");
  ASSERT_TRUE(pair.clock_.SetDate("12/15/82").ok());
  pair.Exec("range of f is faculty");
  pair.Exec("range of g is faculty");
  pair.Exec("replace f (rank = \"full\") where f.name = \"jane\"");

  pair.ExpectSameRows("retrieve (f.name, f.rank)");
  pair.ExpectSameRows("retrieve (f.name) as of \"06/01/81\"");
  pair.ExpectSameRows(
      "retrieve (f.name) as of \"06/01/81\" through \"12/31/82\"");
  pair.ExpectSameRows(
      "retrieve (f.name, f.rank) when f overlap \"01/01/80\"");
  pair.ExpectSameRows(
      "retrieve (f.name) when f precede \"01/01/84\"");
  pair.ExpectSameRows(
      "retrieve (f.name) when \"01/01/78\" precede f");
  // Dynamic windows: the inner participant's window depends on the outer
  // tuple (index-nested-loop when-join).
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) where f.name != g.name "
      "when f overlap g as of \"06/01/82\"");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when f overlap g or f precede g");
  pair.ExpectSameRows(
      "retrieve (a = f.name, b = g.name) when not (f precede g)");
  pair.ExpectSameRows(
      "retrieve (f.name) valid from begin of f to end of f "
      "when f overlap \"06/01/81\"");
}

TEST(PushdownEquivalence, HistoricalQueriesMatchWithPushdownOff) {
  // The same when-queries against a historical relation.
  QueryPair pair;
  ASSERT_TRUE(pair.clock_.SetDate("01/01/80").ok());
  pair.Exec("create historical relation h (name = string)");
  pair.Exec(
      "append to h (name = \"a\") valid from \"01/01/79\" to \"01/01/81\"");
  pair.Exec(
      "append to h (name = \"b\") valid from \"06/01/80\" to \"06/01/83\"");
  pair.Exec(
      "append to h (name = \"c\") valid from \"01/01/84\" to \"01/01/85\"");
  pair.Exec("range of x is h");
  pair.Exec("range of y is h");

  pair.ExpectSameRows("retrieve (x.name)");
  pair.ExpectSameRows("retrieve (x.name) when x overlap \"07/01/80\"");
  pair.ExpectSameRows("retrieve (x.name) when x precede \"01/01/83\"");
  pair.ExpectSameRows("retrieve (a = x.name, b = y.name) when x overlap y");
  pair.ExpectSameRows(
      "retrieve (a = x.name, b = y.name) when x precede y and y overlap "
      "\"06/01/84\"");
}

TEST(PushdownEquivalence, RandomizedQueriesMatchWithPushdownOff) {
  for (uint64_t seed : {3u, 11u}) {
    QueryPair pair;
    StoredRelation* rels[2];
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(pair.db_[i]
                      ->Execute(
                          "create temporal relation h (name = string, "
                          "n = int)")
                      .ok());
      rels[i] = *pair.db_[i]->GetRelation("h");
    }
    // Grow the SAME history on both sides (same seed, same clock steps —
    // reset the clock between the two replays).
    for (int i = 0; i < 2; ++i) {
      pair.clock_.SetTime(Chronon(0));
      GrowRandomHistory(pair.db_[i].get(), &pair.clock_, rels[i], seed, 100);
    }
    pair.Exec("range of u is h");
    pair.Exec("range of v is h");
    pair.ExpectSameRows("retrieve (u.name, u.n)");
    pair.ExpectSameRows("retrieve (u.name) when u overlap \"06/01/70\"");
    pair.ExpectSameRows("retrieve (u.name, v.n) when u overlap v");
    pair.ExpectSameRows(
        "retrieve (u.name) as of \"03/01/70\" through \"09/01/70\"");
  }
}

}  // namespace
}  // namespace temporadb
