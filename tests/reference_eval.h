#ifndef TEMPORADB_TESTS_REFERENCE_EVAL_H_
#define TEMPORADB_TESTS_REFERENCE_EVAL_H_

// Brute-force reference evaluator: the paper's clause meanings written out
// directly, as the oracle every differential suite and the workload driver
// check the engine against.
//
//  - `as of w` keeps the versions whose transaction period overlaps w (for
//    an instant, contains it); without `as of`, kinds with transaction
//    time show their current stored state.  Kinds without transaction time
//    see every stored version.
//  - `when` and `where` are evaluated on every combination of visible
//    versions, participant 0 outermost, each participant in ascending row
//    id.
//  - The result's valid period is the `valid` clause, or the intersection
//    of the target variables' valid periods; its transaction period is the
//    intersection of their transaction periods.  Rows whose period is
//    empty are dropped.
//
// The reference reads versions only through `VersionStore::ForEach` and
// tests periods only with `Period`: no index, no partition pruning, no
// batch, no kernel, no thread pool, and not `EvaluateRetrieve`.  It is
// quadratic in the join width by design.
//
// Header-only and gtest-free (like shadow_history.h) so that non-test
// harnesses — the workload driver — can use it without a test framework.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/database.h"
#include "temporal/version_store.h"
#include "tquel/analyzer.h"
#include "tquel/parser.h"

namespace temporadb {
namespace testutil {

/// A scan result: live versions with their row ids, ascending.
using ReferenceRows = std::vector<std::pair<RowId, BitemporalTuple>>;

/// The live versions of `store` satisfying every predicate in `preds`,
/// tested on each tuple's own periods, in ascending row id.
inline ReferenceRows ReferenceScan(const VersionStore& store,
                                   const BatchPredicates& preds) {
  ReferenceRows out;
  store.ForEach([&](RowId row, const BitemporalTuple& t) {
    if (preds.valid_overlaps && !t.valid.Overlaps(*preds.valid_overlaps)) {
      return;
    }
    if (preds.txn_overlaps && !t.txn.Overlaps(*preds.txn_overlaps)) return;
    if (preds.txn_contains && !t.txn.Contains(*preds.txn_contains)) return;
    if (preds.txn_current && !t.IsCurrentState()) return;
    out.emplace_back(row, t);
  });
  return out;
}

/// Drains an engine scan into the reference's shape.  Each tuple's periods
/// are rebuilt from the batch's chronon columns, so a snapshot scan reports
/// the pin-effective transaction ends, not closes made after the pin.
inline ReferenceRows DrainScan(VersionBatchScan scan) {
  ReferenceRows out;
  VersionBatch batch;
  while (scan.Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      BitemporalTuple t;
      t.values = batch.tuples[i]->values;
      t.valid =
          Period(Chronon(batch.valid_from[i]), Chronon(batch.valid_to[i]));
      t.txn = Period(Chronon(batch.tt_start[i]), Chronon(batch.tt_end[i]));
      out.emplace_back(batch.rows[i], std::move(t));
    }
  }
  return out;
}

/// True when `got` equals `want` element for element; otherwise describes
/// the first difference in `*diff`.
inline bool SameRows(const ReferenceRows& got, const ReferenceRows& want,
                     std::string* diff) {
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (got[i] != want[i]) {
      *diff = "position " + std::to_string(i) + ": row " +
              std::to_string(got[i].first) + " " + got[i].second.ToString() +
              " vs reference row " + std::to_string(want[i].first) + " " +
              want[i].second.ToString();
      return false;
    }
  }
  if (got.size() != want.size()) {
    *diff = std::to_string(got.size()) + " versions vs reference " +
            std::to_string(want.size());
    return false;
  }
  return true;
}

/// True when `got` holds exactly `want`'s rows, in the same order, with the
/// same schema and temporal class; otherwise describes the first
/// difference in `*diff`.
inline bool SameRows(const Rowset& got, const Rowset& want,
                     std::string* diff) {
  if (got.schema() != want.schema() ||
      got.temporal_class() != want.temporal_class()) {
    *diff = "result shape differs";
    return false;
  }
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (!(got.rows()[i] == want.rows()[i])) {
      *diff = "row " + std::to_string(i) + ": " + got.rows()[i].ToString() +
              " vs reference " + want.rows()[i].ToString();
      return false;
    }
  }
  if (got.size() != want.size()) {
    *diff = std::to_string(got.size()) + " rows vs reference " +
            std::to_string(want.size());
    return false;
  }
  return true;
}

/// Parses, analyzes and evaluates one retrieve statement against `db`'s
/// current state and range table.  Aggregate retrieves are NotSupported.
inline Result<Rowset> ReferenceRetrieve(Database* db,
                                        std::string_view source) {
  TDB_ASSIGN_OR_RETURN(std::vector<tquel::Statement> stmts,
                       tquel::Parse(source));
  if (stmts.size() != 1 ||
      !std::holds_alternative<tquel::RetrieveStmt>(stmts[0])) {
    return Status::InvalidArgument(
        "the reference evaluates exactly one retrieve statement");
  }
  tquel::AnalyzerContext actx;
  actx.get_relation = [db](std::string_view name) {
    return db->GetRelation(name);
  };
  actx.ranges = &db->ranges();
  TDB_ASSIGN_OR_RETURN(
      tquel::BoundRetrieve bound,
      tquel::AnalyzeRetrieve(std::get<tquel::RetrieveStmt>(stmts[0]), actx));
  if (bound.has_aggregates) {
    return Status::NotSupported("the reference does not aggregate");
  }

  // The rollback window: one state, or the inclusive range [at, through].
  std::optional<Period> asof;
  if (bound.asof_at != nullptr) {
    TDB_ASSIGN_OR_RETURN(Period at, bound.asof_at->Eval({}));
    asof = Period::At(at.begin());
    if (bound.asof_through != nullptr) {
      TDB_ASSIGN_OR_RETURN(Period through, bound.asof_through->Eval({}));
      asof = Period(at.begin(), through.begin().Next());
    }
    if (asof->IsEmpty()) {
      return Status::InvalidArgument("as-of window is empty");
    }
  }

  // The versions each participant can see.
  const size_t n = bound.participants.size();
  std::vector<std::vector<const BitemporalTuple*>> visible(n);
  for (size_t i = 0; i < n; ++i) {
    const StoredRelation& rel = *bound.participants[i].relation;
    const bool txn_kind = SupportsTransactionTime(rel.temporal_class());
    rel.store()->ForEach([&](RowId, const BitemporalTuple& t) {
      if (txn_kind &&
          !(asof.has_value() ? t.txn.Overlaps(*asof) : t.IsCurrentState())) {
        return;
      }
      visible[i].push_back(&t);
    });
  }

  std::vector<Attribute> attrs;
  for (size_t i = 0; i < bound.target_names.size(); ++i) {
    attrs.push_back(
        Attribute{bound.target_names[i], Type(bound.target_types[i])});
  }
  TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Rowset out(std::move(schema), bound.result_class, bound.result_model);
  for (const std::vector<const BitemporalTuple*>& v : visible) {
    if (v.empty()) return out;
  }
  const bool want_valid = SupportsValidTime(bound.result_class);
  const bool want_txn = SupportsTransactionTime(bound.result_class);

  // The nested loop as an odometer: pos[n-1] turns fastest.
  std::vector<size_t> pos(n, 0);
  PeriodBinding valid(n);
  std::vector<Value> flat;
  while (true) {
    for (size_t i = 0; i < n; ++i) valid[i] = visible[i][pos[i]]->valid;
    // `when` is tested before `where` only because it is the cheaper of
    // two pure predicates.
    bool keep = true;
    if (bound.when != nullptr) {
      TDB_ASSIGN_OR_RETURN(keep, bound.when->Eval(valid));
    }
    if (keep) {
      flat.clear();
      for (size_t i = 0; i < n; ++i) {
        const std::vector<Value>& values = visible[i][pos[i]]->values;
        flat.insert(flat.end(), values.begin(), values.end());
      }
      if (bound.where != nullptr) {
        TDB_ASSIGN_OR_RETURN(keep, EvalPredicate(*bound.where, flat));
      }
    }
    Row row;
    if (keep && want_valid) {
      Period v = Period::All();
      if (bound.valid_from != nullptr) {
        TDB_ASSIGN_OR_RETURN(Period from, bound.valid_from->Eval(valid));
        v = Period::At(from.begin());
        if (!bound.valid_at) {
          TDB_ASSIGN_OR_RETURN(Period to, bound.valid_to->Eval(valid));
          v = Period(from.begin(), to.begin());
        }
      } else {
        for (size_t var : bound.target_vars) v = v.Intersect(valid[var]);
      }
      keep = !v.IsEmpty();
      row.valid = v;
    }
    if (keep && want_txn) {
      Period t = Period::All();
      for (size_t var : bound.target_vars) {
        t = t.Intersect(visible[var][pos[var]]->txn);
      }
      keep = !t.IsEmpty();
      row.txn = t;
    }
    if (keep) {
      for (const ExprPtr& e : bound.target_exprs) {
        TDB_ASSIGN_OR_RETURN(Value v, e->Eval(flat));
        row.values.push_back(std::move(v));
      }
      TDB_RETURN_IF_ERROR(out.AddRow(std::move(row)));
    }
    size_t level = n;
    while (level > 0 && ++pos[level - 1] == visible[level - 1].size()) {
      pos[--level] = 0;
    }
    if (level == 0) return out;
  }
}

}  // namespace testutil
}  // namespace temporadb

#endif  // TEMPORADB_TESTS_REFERENCE_EVAL_H_
