// A5 — Temporal join scaling: the TQuel `when f1 overlap f2` join evaluated
// through the full query stack at increasing relation sizes, with the
// executor's `when` scan pushdown on and off, against the non-temporal
// equi-join as a baseline.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "bench/bench_common.h"

using namespace temporadb;

namespace {

bench::ScenarioDb BuildPair(size_t per_relation, bool time_pushdown = true) {
  VersionStoreOptions options;
  options.time_pushdown = time_pushdown;
  bench::ScenarioDb sdb = bench::OpenScenarioDb(options);
  Random rng(5);
  for (const char* name : {"a", "b"}) {
    Schema schema = *Schema::Make({Attribute{"key", Type::String()},
                                   Attribute{"payload", Type::String()}});
    (void)sdb.db->CreateRelation(name, schema, TemporalClass::kHistorical);
    Result<StoredRelation*> rel = sdb.db->GetRelation(name);
    for (size_t i = 0; i < per_relation; ++i) {
      int64_t day = 3650 + static_cast<int64_t>(rng.Uniform(2000));
      sdb.clock->SetTime(Chronon(3650 + static_cast<int64_t>(i)));
      Period valid(Chronon(day),
                   Chronon(day + 1 + static_cast<int64_t>(rng.Uniform(120))));
      (void)sdb.db->WithTransaction([&](Transaction* txn) {
        return (*rel)->Append(
            txn,
            {Value("k" + std::to_string(rng.Uniform(per_relation / 4 + 1))),
             Value("p")},
            valid);
      });
    }
  }
  (void)sdb.db->Execute("range of x is a");
  (void)sdb.db->Execute("range of y is b");
  return sdb;
}

// With pushdown, the executor re-derives x's period per outer tuple and
// scans b with it as a valid-time predicate, so the synopses and kernels
// drop non-overlapping versions in the store; without it, every inner
// version is surfaced and the `when` predicate filters above the store.
void RunWhenJoin(benchmark::State& state, bool time_pushdown) {
  bench::ScenarioDb sdb =
      BuildPair(static_cast<size_t>(state.range(0)), time_pushdown);
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows = sdb.db->Query(
        "retrieve (x.key) where x.key = y.key when x overlap y");
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    answer = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

void BM_WhenJoin_Pushdown(benchmark::State& state) {
  RunWhenJoin(state, true);
}
void BM_WhenJoin_NoPushdown(benchmark::State& state) {
  RunWhenJoin(state, false);
}

void BM_EquiJoinOnly(benchmark::State& state) {
  bench::ScenarioDb sdb = BuildPair(static_cast<size_t>(state.range(0)));
  size_t answer = 0;
  for (auto _ : state) {
    Result<Rowset> rows =
        sdb.db->Query("retrieve (x.key) where x.key = y.key");
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      break;
    }
    answer = rows->size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["answer_rows"] = static_cast<double>(answer);
}

}  // namespace

BENCHMARK(BM_WhenJoin_Pushdown)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WhenJoin_NoPushdown)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EquiJoinOnly)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond);

TDB_BENCH_MAIN("ablation_when_join")
