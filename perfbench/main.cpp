// The temporadb benchmark.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//
// Builds the workload's inputs from the seed, measures for --seconds,
// checks every answer it can, and prints detail lines followed by one JSON
// result line.  Untraced runs report the end-to-end metrics, traced runs
// the per-layer ones.  Exits 0 when all checks passed, 1 when a check
// failed (the result line says correct: false), 2 when no result could be
// produced.  Databases and span files go under .bench_run/ in the working
// directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1]\nworkloads:",
               why);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");

  args.run_dir = ".bench_run/" + args.workload;
  std::error_code ec;
  std::filesystem::remove_all(args.run_dir, ec);
  std::filesystem::create_directories(args.run_dir, ec);
  if (ec) return Usage(("cannot create " + args.run_dir).c_str());

  const perfbench::RunResult r = perfbench::RunWorkload(args);
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  if (!r.error.empty()) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 2;
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", m.name.c_str());
      return 2;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
