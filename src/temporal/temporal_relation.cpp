#include "temporal/temporal_relation.h"

namespace temporadb {

Status TemporalRelation::Append(Transaction* txn, std::vector<Value> values,
                                std::optional<Period> valid) {
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  TDB_ASSIGN_OR_RETURN(Period period, ResolveValidPeriod(txn, valid));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = period;
  tuple.txn = Period::From(txn->timestamp());
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

namespace {

// Supersedes `row`: closes its transaction period at `now` (only versions
// in the *current* historical state are targets; closed versions belong to
// past states and are immutable) and appends, entering the store now, the
// remnants of its validity outside `period`.  Returns the old version.
Result<BitemporalTuple> Supersede(VersionStore* store, Transaction* txn,
                                  RowId row, Period period) {
  const Chronon now = txn->timestamp();
  TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store->Get(row));
  BitemporalTuple old = *t;
  TDB_RETURN_IF_ERROR(store->CloseTxn(txn, row, now));
  Period left(old.valid.begin(), MinChronon(old.valid.end(), period.begin()));
  Period right(MaxChronon(old.valid.begin(), period.end()), old.valid.end());
  for (Period remnant : {left, right}) {
    if (remnant.IsEmpty()) continue;
    BitemporalTuple r = old;
    r.valid = remnant;
    r.txn = Period::From(now);
    TDB_ASSIGN_OR_RETURN(RowId new_row, store->Append(txn, std::move(r)));
    (void)new_row;
  }
  return old;
}

}  // namespace

Result<size_t> TemporalRelation::DeleteRows(Transaction* txn,
                                            const std::vector<RowId>& targets,
                                            std::optional<Period> period) {
  for (RowId row : targets) {
    TDB_RETURN_IF_ERROR(Supersede(&store_, txn, row, *period).status());
  }
  return targets.size();
}

Result<size_t> TemporalRelation::ReplaceRows(Transaction* txn,
                                             const std::vector<RowId>& targets,
                                             const UpdateSpec& updates,
                                             std::optional<Period> period) {
  for (RowId row : targets) {
    // Remnants keep the old values where the replacement does not reach;
    // the updated fact holds over the intersection of its old validity and
    // the replacement period.
    TDB_ASSIGN_OR_RETURN(BitemporalTuple updated,
                         Supersede(&store_, txn, row, *period));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.valid = updated.valid.Intersect(*period);
    updated.txn = Period::From(txn->timestamp());
    TDB_ASSIGN_OR_RETURN(RowId new_row, store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return targets.size();
}

}  // namespace temporadb
