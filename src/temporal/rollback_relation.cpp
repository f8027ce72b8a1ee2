#include "temporal/rollback_relation.h"

namespace temporadb {

Status RollbackRelation::Append(Transaction* txn, std::vector<Value> values,
                                std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  tuple.valid = Period::All();  // No valid-time semantics in this kind.
  tuple.txn = Period::From(txn->timestamp());
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Result<size_t> RollbackRelation::DeleteRows(Transaction* txn,
                                            const std::vector<RowId>& targets,
                                            std::optional<Period> period) {
  (void)period;  // No valid time.
  // Only the current state is mutable; deleting means the tuple stops being
  // part of the stored state from this transaction on.  Past states are
  // untouched and remain reachable by rollback.
  for (RowId row : targets) {
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, txn->timestamp()));
  }
  return targets.size();
}

Result<size_t> RollbackRelation::ReplaceRows(Transaction* txn,
                                             const std::vector<RowId>& targets,
                                             const UpdateSpec& updates,
                                             std::optional<Period> period) {
  (void)period;  // No valid time.
  // Close the old version at T and append the updated one at [T, ∞): the
  // new static state differs from the old exactly in the replaced tuples.
  for (RowId row : targets) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    updated.txn = Period::From(txn->timestamp());
    TDB_RETURN_IF_ERROR(store_.CloseTxn(txn, row, txn->timestamp()));
    TDB_ASSIGN_OR_RETURN(RowId new_row,
                         store_.Append(txn, std::move(updated)));
    (void)new_row;
  }
  return targets.size();
}

}  // namespace temporadb
