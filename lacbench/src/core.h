// Benchmark building blocks that do not depend on a workload: seeded input
// generation, the Table-1 quality fingerprint and its comparator, latency
// statistics, and the benchmark's own span recorder.  Kept apart from the
// workloads so the self-tests can pin each piece down directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench89/suite.h"
#include "netlist/netlist.h"
#include "planner/interconnect_planner.h"

namespace lacbench {

// --seed value for which seeded_suite() returns the shipped Table-1 specs.
inline constexpr std::uint64_t kDefaultSeed = 1;

// ---- latency statistics ---------------------------------------------------

// Median of `xs` (mean of the two middle values for an even count); nullopt
// when empty.
[[nodiscard]] std::optional<double> median(std::vector<double> xs);

// Nearest-rank q-quantile (0.5 < q < 1) of `xs`, reported only when at least
// `kMinTail` samples lie beyond it — a tail percentile read off fewer
// samples is noise.  For n samples the rank is ceil(q * n), so e.g. p90
// needs n >= 100.
inline constexpr int kMinTail = 10;
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> xs,
                                                    double q);

// ---- seeded inputs ----------------------------------------------------------

// The ten Table-1 circuits re-seeded by `seed`: kDefaultSeed returns the
// shipped specs unchanged; any other seed re-seeds every GenSpec::seed and
// keeps the size statistics (inputs, outputs, gates, flip-flops, depth).
// The timed workloads plan the shipped specs at every seed; this feeds
// the seeded probe (see README.md, "Seeds").
[[nodiscard]] std::vector<lac::bench89::SuiteEntry> seeded_suite(
    std::uint64_t seed);

// The planner configuration every workload starts from: bench/table1_main's
// settings for one suite circuit.
[[nodiscard]] lac::planner::PlannerConfig table1_config(
    const lac::bench89::SuiteEntry& entry);

// One single-edit ECO of the interactive workload.  Sizes are relative so
// a step stays legal whatever the session's current floorplan is.
struct EcoStep {
  // kRemoveCell only appears as the undo of a kBuffer step.
  enum class Kind {
    kResizeCell, kScaleBlockCapacity, kResizeBlock, kBuffer, kRemoveCell
  };
  int circuit = 0;          // index into the workload's circuit list
  Kind kind = Kind::kResizeCell;
  int block = 0;            // kScaleBlockCapacity / kResizeBlock
  double value = 1.0;       // cell scale / capacity factor / area factor
  std::string cell;         // kResizeCell / kRemoveCell
  std::string name;         // kBuffer: new buffer cell
  std::string driver;       // kBuffer
  std::string sink;         // kBuffer
  bool check_cold = false;  // compare this step's re-plan with replan_cold()

  friend bool operator==(const EcoStep&, const EcoStep&) = default;
};

[[nodiscard]] const char* kind_name(EcoStep::Kind k);

// A journal of `ops` (even) single-edit ECOs over `circuits` (with their
// block counts): what-if pairs of an edit and the edit that undoes it,
// cycling through (circuit, edit kind).  The edits themselves are the same
// for every seed; `seed` orders the pairs and marks each step for the
// cold-equivalence check with probability 1 / `cold_every`.  Every step is
// legal on the session state the steps before it produce.
[[nodiscard]] std::vector<EcoStep> eco_journal(
    std::uint64_t seed, const std::vector<lac::netlist::Netlist>& circuits,
    const std::vector<int>& num_blocks, int ops, int cold_every);

// ---- quality fingerprint ----------------------------------------------------

// The Table-1 row of one circuit: every quality column, none of the times.
struct Fingerprint {
  std::string circuit;
  double t_clk_ps = 0.0;
  double t_init_ps = 0.0;
  std::int64_t ma_n_foa = 0, ma_n_f = 0, ma_n_fn = 0;
  std::int64_t lac_n_foa = 0, lac_n_f = 0, lac_n_fn = 0;
  int lac_n_wr = 0;
  std::int64_t iter2_n_foa = -1;  // -1: no second iteration ran
};

// Fingerprint of a plan(nl, {.max_iterations = 2}) result list.
[[nodiscard]] Fingerprint fingerprint(
    const std::vector<lac::planner::PlanResult>& iterations);

// One line per circuit; doubles in round-trip precision.
[[nodiscard]] std::string to_line(const Fingerprint& f);
[[nodiscard]] std::optional<Fingerprint> parse_line(const std::string& line);

// Field-by-field differences ("y386.lac_n_foa: 1 != 2"); empty == equal.
[[nodiscard]] std::vector<std::string> diff(const Fingerprint& want,
                                            const Fingerprint& got);

// Golden file I/O (lines of to_line(); '#' comments).
[[nodiscard]] std::vector<Fingerprint> read_golden(const std::string& path);
[[nodiscard]] std::string golden_path();

// Bit-for-bit comparison of two plans' quality outputs and retimings;
// returns the first differences found (empty == identical).
[[nodiscard]] std::vector<std::string> compare_plans(
    const lac::planner::PlanResult& want, const lac::planner::PlanResult& got);

// ---- the benchmark's own spans ---------------------------------------------

// In-memory span store: the benchmark brackets each call into a layer's
// public function with a span (name, start, end, parent, op id) and writes
// the store out when the run ends.  Thread-safe, so parallel ops can record.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       // index of the enclosing span, -1 for a root
    int op = -1;           // op id shared by every span of one op
  };

  Tracer();
  int open(std::string name, int op, int parent);
  void close(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  // Σ duration of spans with this name.
  [[nodiscard]] double total(const std::string& name) const;
  // JSON document {"schema": "lacbench-trace/1", "spans": [...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] double now() const;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, std::string name, int op, int parent = -1)
      : t_(t), id_(t != nullptr ? t->open(std::move(name), op, parent) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }
  void close() {
    if (t_ != nullptr && id_ >= 0) t_->close(id_);
    id_ = -1;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// ---- process measurements ---------------------------------------------------

[[nodiscard]] double now_s();       // steady clock, seconds
[[nodiscard]] double cpu_s();       // process user + sys CPU seconds
[[nodiscard]] double peak_rss_mb(); // VmHWM of this process, MB

}  // namespace lacbench
