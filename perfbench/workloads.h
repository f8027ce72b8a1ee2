#ifndef TEMPORADB_PERFBENCH_WORKLOADS_H_
#define TEMPORADB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the run's databases and span file.
  std::string run_dir;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
  /// Human-readable detail printed ahead of the result line.
  std::vector<std::string> notes;
  /// Why the run could not produce a result (empty on success).
  std::string error;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Sets up, measures and checks one workload.
RunResult RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // TEMPORADB_PERFBENCH_WORKLOADS_H_
