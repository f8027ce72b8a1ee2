#include "temporal/historical_relation.h"

namespace temporadb {

Status HistoricalRelation::Append(Transaction* txn, std::vector<Value> values,
                                  std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  TDB_ASSIGN_OR_RETURN(Period period, ResolveValidPeriod(txn, valid));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = period;
  tuple.txn = Period::All();  // Transaction time is not maintained.
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Result<size_t> HistoricalRelation::DeleteRows(
    Transaction* txn, const std::vector<RowId>& targets,
    std::optional<Period> period) {
  const Period del = *period;
  for (RowId row : targets) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple old = *t;
    // The fact's validity minus the deleted period: up to two remnants.
    Period left(old.valid.begin(), MinChronon(old.valid.end(), del.begin()));
    Period right(MaxChronon(old.valid.begin(), del.end()), old.valid.end());
    bool keep_left = !left.IsEmpty();
    bool keep_right = !right.IsEmpty();
    if (keep_left && keep_right) {
      // Deleted period strictly inside: split into two versions.
      BitemporalTuple l = old;
      l.valid = left;
      TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(l)));
      BitemporalTuple r = old;
      r.valid = right;
      TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(r)));
      (void)new_row;
    } else if (keep_left || keep_right) {
      BitemporalTuple trimmed = old;
      trimmed.valid = keep_left ? left : right;
      TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(trimmed)));
    } else {
      // Entire validity deleted: the fact never was (as best we now know).
      TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
    }
  }
  return targets.size();
}

Result<size_t> HistoricalRelation::ReplaceRows(
    Transaction* txn, const std::vector<RowId>& targets,
    const UpdateSpec& updates, std::optional<Period> period) {
  // Replace = delete the old values over the period, then record the new
  // values over (old validity ∩ period).  Build the insertions before
  // deleting so they start from the pre-statement versions.
  std::vector<BitemporalTuple> insertions;
  for (RowId row : targets) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.valid = updated.valid.Intersect(*period);
    insertions.push_back(std::move(updated));
  }
  TDB_ASSIGN_OR_RETURN(size_t deleted, DeleteRows(txn, targets, period));
  (void)deleted;
  for (BitemporalTuple& t : insertions) {
    TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(t)));
    (void)row;
  }
  return insertions.size();
}

}  // namespace temporadb
