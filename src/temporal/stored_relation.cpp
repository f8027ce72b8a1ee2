#include "temporal/stored_relation.h"

#include <algorithm>

#include "common/strings.h"
#include "temporal/historical_relation.h"
#include "temporal/rollback_relation.h"
#include "temporal/static_relation.h"
#include "temporal/temporal_relation.h"

namespace temporadb {

UpdateAction ConstUpdate(size_t index, Value v) {
  return UpdateAction{
      index,
      [v = std::move(v)](const std::vector<Value>&) -> Result<Value> {
        return v;
      }};
}

Result<std::vector<Value>> ApplyUpdates(const UpdateSpec& updates,
                                        const std::vector<Value>& values) {
  std::vector<Value> out = values;
  for (const UpdateAction& action : updates) {
    if (action.index >= out.size()) {
      return Status::InvalidArgument("update index out of range");
    }
    TDB_ASSIGN_OR_RETURN(out[action.index], action.compute(values));
  }
  return out;
}

const std::pair<size_t, Value>* FirstIndexedProbe(
    const VersionStore& store, const AttributeProbes& probes) {
  for (const std::pair<size_t, Value>& probe : probes) {
    if (store.HasAttributeIndex(probe.first)) return &probe;
  }
  return nullptr;
}

Status StoredRelation::CheckDmlWhen(const PeriodPredicate& when) const {
  if (when != nullptr && !SupportsValidTime(info_.temporal_class)) {
    return Status::NotSupported(StringPrintf(
        "relation '%s' is %s and does not maintain valid time; a 'when' "
        "clause is not supported",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  return Status::OK();
}

Result<size_t> StoredRelation::DeleteWhere(Transaction* txn,
                                           const TuplePredicate& pred,
                                           std::optional<Period> valid,
                                           const PeriodPredicate& when,
                                           const AttributeProbes& probes) {
  TDB_RETURN_IF_ERROR(CheckDmlWhen(when));
  TDB_ASSIGN_OR_RETURN(std::optional<Period> period,
                       ResolveDmlPeriod(txn, valid));
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> targets,
                       SelectTargets(pred, when, probes, period));
  return DeleteRows(txn, targets, period);
}

Result<size_t> StoredRelation::ReplaceWhere(Transaction* txn,
                                            const TuplePredicate& pred,
                                            const UpdateSpec& updates,
                                            std::optional<Period> valid,
                                            const PeriodPredicate& when,
                                            const AttributeProbes& probes) {
  TDB_RETURN_IF_ERROR(CheckDmlWhen(when));
  TDB_ASSIGN_OR_RETURN(std::optional<Period> period,
                       ResolveDmlPeriod(txn, valid));
  TDB_ASSIGN_OR_RETURN(std::vector<RowId> targets,
                       SelectTargets(pred, when, probes, period));
  return ReplaceRows(txn, targets, updates, period);
}

Result<size_t> StoredRelation::CorrectErase(Transaction* txn,
                                            const TuplePredicate& pred,
                                            const AttributeProbes& probes) {
  if (info_.temporal_class != TemporalClass::kHistorical) {
    return Status::NotSupported(StringPrintf(
        "physical corrections are only meaningful for historical "
        "relations; '%s' is %s",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  TDB_ASSIGN_OR_RETURN(
      std::vector<RowId> targets,
      SelectTargets(pred, nullptr, probes, /*overlapping=*/std::nullopt));
  for (RowId row : targets) {
    TDB_RETURN_IF_ERROR(store_.PhysicalDelete(txn, row));
  }
  return targets.size();
}

Result<std::vector<RowId>> StoredRelation::SelectTargets(
    const TuplePredicate& pred, const PeriodPredicate& when,
    const AttributeProbes& probes, std::optional<Period> overlapping) const {
  const bool current_only = SupportsTransactionTime(info_.temporal_class);
  // Select every target before the caller mutates anything: the kinds'
  // DML appends and closes rows, which would disturb a live traversal,
  // and the predicate must see the pre-statement state.
  std::vector<RowId> targets;
  const auto visit = [&](RowId row, const BitemporalTuple& t) {
    // Scope first, then `when`, the period and the predicate: the order
    // the enumerating path has always evaluated them in, so a failing
    // `when` or predicate fails on the same rows.
    const bool overlaps =
        !overlapping.has_value() || t.valid.Overlaps(*overlapping);
    if (current_only ? !t.IsCurrentState() : !overlaps) return;
    if (when != nullptr && !when(t.valid)) return;
    if (overlaps && pred(t.values)) targets.push_back(row);
  };
  if (const std::pair<size_t, Value>* probe =
          FirstIndexedProbe(store_, probes)) {
    TDB_ASSIGN_OR_RETURN(std::vector<RowId> candidates,
                         store_.LookupAttribute(probe->first, probe->second));
    std::sort(candidates.begin(), candidates.end());
    for (RowId row : candidates) {
      TDB_ASSIGN_OR_RETURN(const BitemporalTuple* t, store_.Get(row));
      visit(row, *t);
    }
    return targets;
  }
  // The kind's scope as scan predicates: the current state for kinds with
  // transaction time, the versions overlapping `overlapping` otherwise.
  BatchPredicates scope;
  if (current_only) {
    scope.txn_current = true;
  } else {
    scope.valid_overlaps = overlapping;
  }
  VersionBatchScan scan = store_.BatchScan(scope);
  VersionBatch batch;
  while (scan.Next(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      visit(batch.rows[i], *batch.tuples[i]);
    }
  }
  return targets;
}

BatchPredicates StoredRelation::TimePredicates(const ScanSpec& spec) const {
  BatchPredicates preds;
  if (SupportsTransactionTime(info_.temporal_class)) {
    if (!spec.asof.has_value()) {
      preds.txn_current = true;
    } else if (spec.asof->IsInstant()) {
      preds.txn_contains = spec.asof->begin();
    } else {
      preds.txn_overlaps = spec.asof;
    }
  }
  if (SupportsValidTime(info_.temporal_class)) {
    preds.valid_overlaps = spec.valid_during;
  }
  return preds;
}

VersionBatchScan StoredRelation::BatchScan(const ScanSpec& spec) const {
  if (spec.snapshot.has_value()) {
    return store_.BatchScanSnapshot(*spec.snapshot, TimePredicates(spec));
  }
  return store_.BatchScan(TimePredicates(spec));
}

Status StoredRelation::CreateIndex(std::string_view attribute) {
  std::optional<size_t> idx = info_.schema.IndexOf(attribute);
  if (!idx.has_value()) {
    return Status::InvalidArgument(StringPrintf(
        "relation '%s' has no attribute '%s'", info_.name.c_str(),
        std::string(attribute).c_str()));
  }
  return store_.CreateAttributeIndex(*idx);
}

Result<std::vector<Value>> StoredRelation::CheckValues(
    std::vector<Value> values) const {
  const Schema& schema = info_.schema;
  if (values.size() != schema.size()) {
    return Status::InvalidArgument(StringPrintf(
        "relation '%s' expects %zu attributes, got %zu", info_.name.c_str(),
        schema.size(), values.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    TDB_ASSIGN_OR_RETURN(values[i], schema.at(i).type.Coerce(values[i]));
  }
  return values;
}

Result<Period> StoredRelation::ResolveValidPeriod(
    Transaction* txn, std::optional<Period> valid) const {
  if (!valid.has_value()) {
    // The fact holds "from now on" (interval model) or "happens now"
    // (event model), where "now" is the transaction timestamp.
    if (info_.data_model == TemporalDataModel::kEvent) {
      return Period::At(txn->timestamp());
    }
    return Period::From(txn->timestamp());
  }
  if (valid->IsEmpty()) {
    return Status::InvalidArgument("valid period is empty");
  }
  if (info_.data_model == TemporalDataModel::kEvent && !valid->IsInstant()) {
    return Status::InvalidArgument(StringPrintf(
        "'%s' is an event relation; its valid time is a single chronon "
        "(use 'valid at'), not an interval",
        info_.name.c_str()));
  }
  return *valid;
}

Status StoredRelation::RejectValidPeriod(
    const std::optional<Period>& valid) const {
  if (valid.has_value()) {
    return Status::NotSupported(StringPrintf(
        "relation '%s' is %s and does not maintain valid time; retroactive "
        "or postactive changes (a 'valid' clause) are not supported",
        info_.name.c_str(),
        std::string(TemporalClassName(info_.temporal_class)).c_str()));
  }
  return Status::OK();
}

Result<std::optional<Period>> StoredRelation::ResolveDmlPeriod(
    Transaction* txn, std::optional<Period> valid) const {
  if (!SupportsValidTime(info_.temporal_class)) {
    TDB_RETURN_IF_ERROR(RejectValidPeriod(valid));
    return std::optional<Period>();
  }
  TDB_ASSIGN_OR_RETURN(Period period, ResolveValidPeriod(txn, valid));
  return std::optional<Period>(period);
}

std::unique_ptr<StoredRelation> MakeStoredRelation(
    RelationInfo info, VersionStoreOptions options) {
  switch (info.temporal_class) {
    case TemporalClass::kStatic:
      return std::make_unique<StaticRelation>(std::move(info), options);
    case TemporalClass::kRollback:
      return std::make_unique<RollbackRelation>(std::move(info), options);
    case TemporalClass::kHistorical:
      return std::make_unique<HistoricalRelation>(std::move(info), options);
    case TemporalClass::kTemporal:
      return std::make_unique<TemporalRelation>(std::move(info), options);
  }
  return nullptr;
}

}  // namespace temporadb
