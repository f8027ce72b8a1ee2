// A3 — Rollback (`as of`) latency vs. history depth.
//
// Every rollback is a scan of the version store's chronon columns: the
// partition synopses skip the epochs the instant provably misses, and the
// kernels test `tt_start <= t < tt_end` over the rest.  Expected shape:
// linear in the rows of the epochs that survive pruning, so a probe in the
// middle of history pays for the epochs around it, not for all of them.
// (A11 runs the same access path at 64k-1M versions.)

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"
#include "temporal/snapshot.h"

using namespace temporadb;

namespace {

struct Built {
  bench::ScenarioDb sdb;
  StoredRelation* rel;
  Chronon probe;  // An instant in the middle of history.
};

Built Build(size_t churn) {
  Built out{bench::OpenScenarioDb(), nullptr, Chronon(0)};
  out.rel = bench::PopulateStream(out.sdb.db.get(), out.sdb.clock.get(), "r",
                                  TemporalClass::kRollback, 64, churn, 99);
  // Probe the middle of the transaction-time line.
  std::vector<Chronon> boundaries = TransactionBoundaries(*out.rel->store());
  out.probe = boundaries[boundaries.size() / 2];
  return out;
}

size_t Drain(VersionBatchScan scan) {
  VersionBatch batch;
  size_t rows = 0;
  while (scan.Next(&batch)) rows += batch.size();
  return rows;
}

void RunScan(benchmark::State& state, bool at_probe) {
  Built built = Build(static_cast<size_t>(state.range(0)));
  BatchPredicates preds;
  if (at_probe) {
    preds.txn_contains = built.probe;
  } else {
    preds.txn_current = true;  // Rollback to "now".
  }
  size_t answer = 0;
  for (auto _ : state) {
    answer = Drain(built.rel->store()->BatchScan(preds));
    benchmark::DoNotOptimize(answer);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
  state.counters["history_versions"] =
      static_cast<double>(built.rel->store()->version_count());
}

void BM_AsOf(benchmark::State& state) { RunScan(state, true); }
void BM_Current(benchmark::State& state) { RunScan(state, false); }

}  // namespace

BENCHMARK(BM_AsOf)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_Current)->Arg(1000)->Arg(4000)->Arg(16000);

TDB_BENCH_MAIN("ablation_rollback_latency")
