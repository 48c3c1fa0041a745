// lacbench: runs one benchmark workload and prints its result line.
//
//   lacbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--out DIR] [--smoke]
//
// Human-readable notes and failed checks go to stderr; the last line of
// stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 1 when a check failed, 64 on a
// usage error, 70 when the run itself could not complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "lacbench: %s\nusage: lacbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] [--smoke]\n",
               why);
  return 64;
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  lacbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    double num = 0.0;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--out") {
      opt.out_dir = val;
    } else if (!parse_number(val, &num) || num < 0) {
      return usage(("bad value for " + arg).c_str());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = num;
    } else if (arg == "--trace") {
      opt.trace = num != 0.0;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  bool known = false;
  for (const auto& n : lacbench::workload_names()) known = known || n == opt.workload;
  if (!known) return usage(("unknown workload " + opt.workload).c_str());

  lacbench::Result r;
  try {
    r = lacbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lacbench: run aborted: %s\n", e.what());
    return 70;
  }
  for (const auto& n : r.notes) std::fprintf(stderr, "note: %s\n", n.c_str());
  for (const auto& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  std::printf("%s\n", lacbench::result_json(r).c_str());
  return r.correct ? 0 : 1;
}
