#include "temporal/snapshot.h"

#include <algorithm>
#include <set>

namespace temporadb {

namespace {

// Calls `fn` on every live version matching `preds`, in row order.
template <typename Fn>
void ForEachMatch(const VersionStore& store, BatchPredicates preds, Fn fn) {
  VersionBatchScan scan = store.BatchScan(preds);
  VersionBatch batch;
  while (scan.Next(&batch)) {
    for (const BitemporalTuple* t : batch.tuples) fn(*t);
  }
}

}  // namespace

StaticState RollbackSlice(const VersionStore& store, Chronon t) {
  StaticState state;
  state.at = t;
  ForEachMatch(store, {.txn_contains = t}, [&](const BitemporalTuple& tuple) {
    state.rows.push_back(tuple.values);
  });
  std::sort(state.rows.begin(), state.rows.end());
  return state;
}

StaticState ValidTimeslice(const VersionStore& store, Chronon v) {
  StaticState state;
  state.at = v;
  // Only the current stored state participates; superseded versions of a
  // temporal relation belong to past states.
  ForEachMatch(store, {.valid_overlaps = Period::At(v), .txn_current = true},
               [&](const BitemporalTuple& tuple) {
                 state.rows.push_back(tuple.values);
               });
  std::sort(state.rows.begin(), state.rows.end());
  return state;
}

HistoricalState HistoricalStateAsOf(const VersionStore& store, Chronon t) {
  HistoricalState state;
  state.at = t;
  ForEachMatch(store, {.txn_contains = t}, [&](const BitemporalTuple& tuple) {
    state.rows.push_back(tuple);
  });
  std::sort(state.rows.begin(), state.rows.end(),
            [](const BitemporalTuple& a, const BitemporalTuple& b) {
              if (a.values != b.values) return a.values < b.values;
              return a.valid.begin() < b.valid.begin();
            });
  return state;
}

std::vector<Chronon> TransactionBoundaries(const VersionStore& store) {
  std::set<Chronon> boundaries;
  store.ForEach([&](RowId, const BitemporalTuple& t) {
    if (t.txn.begin().IsFinite()) boundaries.insert(t.txn.begin());
    if (t.txn.end().IsFinite()) boundaries.insert(t.txn.end());
  });
  return std::vector<Chronon>(boundaries.begin(), boundaries.end());
}

std::vector<Chronon> ValidBoundaries(const VersionStore& store) {
  std::set<Chronon> boundaries;
  store.ForEach([&](RowId, const BitemporalTuple& t) {
    if (!t.IsCurrentState()) return;  // Slice the current knowledge only.
    if (t.valid.begin().IsFinite()) boundaries.insert(t.valid.begin());
    if (t.valid.end().IsFinite()) boundaries.insert(t.valid.end());
  });
  return std::vector<Chronon>(boundaries.begin(), boundaries.end());
}

std::vector<StaticState> RollbackStates(const VersionStore& store) {
  std::vector<StaticState> states;
  for (Chronon t : TransactionBoundaries(store)) {
    states.push_back(RollbackSlice(store, t));
  }
  return states;
}

std::vector<StaticState> HistoricalSlices(const VersionStore& store) {
  std::vector<StaticState> slices;
  for (Chronon v : ValidBoundaries(store)) {
    slices.push_back(ValidTimeslice(store, v));
  }
  return slices;
}

std::vector<HistoricalState> TemporalStates(const VersionStore& store) {
  std::vector<HistoricalState> states;
  for (Chronon t : TransactionBoundaries(store)) {
    states.push_back(HistoricalStateAsOf(store, t));
  }
  return states;
}

}  // namespace temporadb
