// The benchmark's workloads (see README.md for what each one stresses):
//
//   table1_serial    the ten Table-1 circuits, one cold two-iteration plan
//                    each, one thread, program observability off;
//   table1_parallel  the same plans fanned out over base::parallel_map,
//                    observability on, run report built at the end;
//   eco_interactive  PlanSessions on y298..y641 driven by a seeded journal
//                    of single-edit ECOs, observability and event stream on.
//
// run() measures one workload and checks every output; with
// Options::trace it records the benchmark's own spans around each layer's
// public calls and replays the layers on the planner's artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core.h"

namespace lacbench {

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  // passes repeat while another one fits
  bool trace = false;
  bool smoke = false;     // tiny inputs, for the self-tests
  std::string out_dir = ".";  // trace, report and event-stream files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  std::vector<std::string> errors;  // failed checks, for stderr
  std::vector<std::string> notes;   // human-readable extras, for stderr
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Runs one workload.  Throws lac::CheckError on a usage error (unknown
// workload); every planner failure is counted in Result::failed instead.
[[nodiscard]] Result run(const Options& opt);

// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Result& r);

}  // namespace lacbench
