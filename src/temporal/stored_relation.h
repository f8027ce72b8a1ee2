#ifndef TEMPORADB_TEMPORAL_STORED_RELATION_H_
#define TEMPORADB_TEMPORAL_STORED_RELATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "temporal/version_store.h"
#include "txn/transaction.h"

namespace temporadb {

/// A predicate over a tuple's explicit attribute values, used to select the
/// targets of `delete`/`replace` statements.  The TQuel evaluator compiles
/// `where` clauses down to this.
using TuplePredicate = std::function<bool(const std::vector<Value>&)>;

/// A predicate over a tuple's valid period — the DML `when` clause
/// (e.g. `delete f when f precede "01/01/80"`).  Null means "no when
/// clause"; only kinds with valid time accept one.
using PeriodPredicate = std::function<bool(Period)>;

/// Equality probes into secondary attribute indexes: `(attribute index,
/// key)` pairs, each a top-level conjunct `attr = key` of a DML where
/// clause.  A probe only chooses candidate rows — the full predicate still
/// runs on every candidate — so the caller may pass one only when the
/// predicate (and any `when` predicate) cannot fail on a row the probe
/// skips.  Probes on attributes without an index are ignored.
using AttributeProbes = std::vector<std::pair<size_t, Value>>;

/// The first probe whose attribute `store` indexes; null when there is none.
const std::pair<size_t, Value>* FirstIndexedProbe(
    const VersionStore& store, const AttributeProbes& probes);

/// One attribute assignment of a `replace` statement.  `compute` receives
/// the tuple's *old* values, so assignments like `salary = f.salary * 1.1`
/// work; use `ConstUpdate` for plain constants.
struct UpdateAction {
  size_t index;
  std::function<Result<Value>(const std::vector<Value>&)> compute;
};
using UpdateSpec = std::vector<UpdateAction>;

/// An assignment to a constant value.
UpdateAction ConstUpdate(size_t index, Value v);

/// The time windows a query pushes down into a relation scan.  Both are
/// *candidate pruning* hints: a scan may yield a superset of the matching
/// versions (the evaluator re-checks exact predicates per tuple), but must
/// never drop a version whose transaction period overlaps `asof` / whose
/// valid period overlaps `valid_during`.
struct ScanSpec {
  /// Transaction-time window of an `as of [... through ...]` clause.
  std::optional<Period> asof = std::nullopt;
  /// Valid-time window implied by a `when` / `valid` predicate.
  std::optional<Period> valid_during = std::nullopt;
  /// When set, the scan runs in snapshot-isolated mode against this pin
  /// (see `Database::BeginReadSnapshot`): it is safe on a non-writer thread
  /// during concurrent commits, sees only rows/closes published at or
  /// before the pin, and is exempt from the mutation-epoch staleness check.
  std::optional<SnapshotPin> snapshot = std::nullopt;
};

/// Applies an update spec to a copy of `values`.
Result<std::vector<Value>> ApplyUpdates(const UpdateSpec& updates,
                                        const std::vector<Value>& values);

/// Base class of the four stored-relation kinds.
///
/// The subclasses map one-to-one onto the paper's taxonomy (Figure 10):
///
/// | class                | time maintained        | update discipline     |
/// |----------------------|------------------------|-----------------------|
/// | `StaticRelation`     | none                   | destructive, in place |
/// | `RollbackRelation`   | transaction            | append-only states    |
/// | `HistoricalRelation` | valid                  | arbitrary correction  |
/// | `TemporalRelation`   | transaction and valid  | append-only histories |
///
/// The shared DML vocabulary is `Append` / `DeleteWhere` / `ReplaceWhere`,
/// each taking an optional *valid-time period*.  Kinds that do not support
/// valid time reject a supplied period with `NotSupported` — this is the
/// taxonomy made executable: a retroactive change is exactly a DML statement
/// whose valid period differs from "now on", and only historical/temporal
/// relations accept one (§4.3/§4.4).
class StoredRelation {
 public:
  explicit StoredRelation(RelationInfo info, VersionStoreOptions options = {})
      : info_(std::move(info)), store_(options) {}
  virtual ~StoredRelation() = default;

  StoredRelation(const StoredRelation&) = delete;
  StoredRelation& operator=(const StoredRelation&) = delete;

  const RelationInfo& info() const { return info_; }
  const Schema& schema() const { return info_.schema; }
  TemporalClass temporal_class() const { return info_.temporal_class; }
  TemporalDataModel data_model() const { return info_.data_model; }

  /// Inserts a tuple.  `valid` is the fact's valid-time period; nullopt
  /// means "from the transaction timestamp on" for kinds with valid time
  /// and is required to be nullopt for kinds without it.
  virtual Status Append(Transaction* txn, std::vector<Value> values,
                        std::optional<Period> valid) = 0;

  /// Deletes the facts matching `pred` over the valid period `valid`
  /// (nullopt: "from the transaction timestamp on" with valid time, the
  /// whole tuple without).  The optional `when` predicate additionally
  /// filters targets by their valid period (TQuel's `when` on DML); it is
  /// NotSupported on kinds without valid time.  `probes` may narrow the
  /// candidates to an index lookup (see `AttributeProbes`).  Returns the
  /// number of tuples affected.
  Result<size_t> DeleteWhere(Transaction* txn, const TuplePredicate& pred,
                             std::optional<Period> valid,
                             const PeriodPredicate& when = nullptr,
                             const AttributeProbes& probes = {});

  /// Applies `updates` to the facts matching `pred` (and `when`) over the
  /// valid period.  Returns the number of tuples affected.
  Result<size_t> ReplaceWhere(Transaction* txn, const TuplePredicate& pred,
                              const UpdateSpec& updates,
                              std::optional<Period> valid,
                              const PeriodPredicate& when = nullptr,
                              const AttributeProbes& probes = {});

  /// Historical-only physical correction: removes matching versions
  /// entirely, leaving no trace (§4.3: "there is no record kept of the
  /// errors that have been corrected").  NotSupported elsewhere.
  Result<size_t> CorrectErase(Transaction* txn, const TuplePredicate& pred,
                              const AttributeProbes& probes = {});

  /// The scan entry point of all four kinds: `spec`'s windows become
  /// `BatchPredicates` (`TimePredicates`), which the store's partition
  /// synopses and kernels evaluate — on the writer thread, or against
  /// `spec.snapshot`'s pin when one is set.  The scan yields columnar
  /// `VersionBatch`es of at most `store()->options().batch_rows` rows, in
  /// ascending row id.
  VersionBatchScan BatchScan(const ScanSpec& spec) const;

  /// Creates a secondary index on the named attribute (used by the query
  /// evaluator for equality predicates).
  Status CreateIndex(std::string_view attribute);

  /// The underlying version store (query layer access path).
  VersionStore* store() { return &store_; }
  const VersionStore* store() const { return &store_; }

 protected:
  /// Kind-specific DML over the targets `SelectTargets` chose, in ascending
  /// row id.  `period` is the statement's resolved valid period for kinds
  /// with valid time and nullopt for kinds without.  Returns the number of
  /// tuples affected.
  virtual Result<size_t> DeleteRows(Transaction* txn,
                                    const std::vector<RowId>& targets,
                                    std::optional<Period> period) = 0;
  virtual Result<size_t> ReplaceRows(Transaction* txn,
                                     const std::vector<RowId>& targets,
                                     const UpdateSpec& updates,
                                     std::optional<Period> period) = 0;

  /// Validates arity/types and coerces values against the schema.
  Result<std::vector<Value>> CheckValues(std::vector<Value> values) const;

  /// Resolves the valid period for a kind *with* valid time: defaults to
  /// `[now, ∞)`, validates event relations get instants (coercing a nullopt
  /// default to the single chronon `now`).
  Result<Period> ResolveValidPeriod(Transaction* txn,
                                    std::optional<Period> valid) const;

  /// Rejects a user-supplied valid period for kinds *without* valid time.
  Status RejectValidPeriod(const std::optional<Period>& valid) const;

  RelationInfo info_;
  VersionStore store_;

 private:
  /// The one spec→predicates translation, keyed on the time dimensions the
  /// kind maintains:
  ///
  /// | kind       | `asof`                          | `valid_during`   |
  /// |------------|---------------------------------|------------------|
  /// | static     | ignored                         | ignored          |
  /// | rollback   | `txn_contains` / `txn_overlaps` | ignored          |
  /// | historical | ignored                         | `valid_overlaps` |
  /// | temporal   | `txn_contains` / `txn_overlaps` | `valid_overlaps` |
  ///
  /// An instant `asof` window becomes `txn_contains`, a longer one
  /// `txn_overlaps`; without `asof`, kinds with transaction time scan only
  /// the current stored state (`txn_current`).
  BatchPredicates TimePredicates(const ScanSpec& spec) const;

  /// The one DML target selection all kinds share.  Candidates come from
  /// the first probe whose attribute is indexed, else from the kind's scope
  /// — the current state for kinds with transaction time, the versions
  /// whose valid period overlaps `overlapping` when given, all live
  /// versions otherwise — and are visited in ascending row id.  Each
  /// candidate in scope must then pass `when`, overlap `overlapping`, and
  /// pass `pred`, evaluated in that order.
  Result<std::vector<RowId>> SelectTargets(
      const TuplePredicate& pred, const PeriodPredicate& when,
      const AttributeProbes& probes,
      std::optional<Period> overlapping) const;

  /// The valid period a DML statement acts over: `ResolveValidPeriod` for
  /// kinds with valid time, nullopt (after `RejectValidPeriod`) without.
  Result<std::optional<Period>> ResolveDmlPeriod(
      Transaction* txn, std::optional<Period> valid) const;

  /// NotSupported when a DML `when` clause targets a kind without valid
  /// time.
  Status CheckDmlWhen(const PeriodPredicate& when) const;
};

/// Creates the right subclass for `info.temporal_class`.
std::unique_ptr<StoredRelation> MakeStoredRelation(
    RelationInfo info, VersionStoreOptions options = {});

}  // namespace temporadb

#endif  // TEMPORADB_TEMPORAL_STORED_RELATION_H_
