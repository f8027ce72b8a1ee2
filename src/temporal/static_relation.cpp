#include "temporal/static_relation.h"

namespace temporadb {

Status StaticRelation::Append(Transaction* txn, std::vector<Value> values,
                              std::optional<Period> valid) {
  TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
  TDB_ASSIGN_OR_RETURN(values, CheckValues(std::move(values)));
  BitemporalTuple tuple;
  tuple.values = std::move(values);
  // Static relations have no temporal semantics: both periods degenerate.
  tuple.valid = Period::All();
  tuple.txn = Period::All();
  TDB_ASSIGN_OR_RETURN(RowId row, store_.Append(txn, std::move(tuple)));
  (void)row;
  return Status::OK();
}

Result<size_t> StaticRelation::DeleteRows(Transaction* txn,
                                          const std::vector<RowId>& targets,
                                          std::optional<Period> period) {
  (void)period;  // No valid time.
  for (RowId row : targets) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return targets.size();
}

Result<size_t> StaticRelation::ReplaceRows(Transaction* txn,
                                           const std::vector<RowId>& targets,
                                           const UpdateSpec& updates,
                                           std::optional<Period> period) {
  (void)period;  // No valid time.
  for (RowId row : targets) {
    TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
    BitemporalTuple updated = *t;
    TDB_ASSIGN_OR_RETURN(updated.values,
                         ApplyUpdates(updates, updated.values));
    TDB_ASSIGN_OR_RETURN(updated.values,
                         CheckValues(std::move(updated.values)));
    TDB_RETURN_IF_ERROR(store_.PhysicalUpdate(txn, row, std::move(updated)));
  }
  return targets.size();
}

}  // namespace temporadb
