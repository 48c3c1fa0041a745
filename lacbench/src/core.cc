#include "core.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "base/check.h"
#include "base/rng.h"
#include "obs/json.h"
#include "obs/memory.h"

namespace lacbench {

namespace netlist = lac::netlist;
namespace planner = lac::planner;

// ---- latency statistics ---------------------------------------------------

std::optional<double> median(std::vector<double> xs) {
  if (xs.empty()) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n % 2 == 1) return xs[n / 2];
  return 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> xs, double q) {
  if (!(q > 0.5 && q < 1.0) || xs.empty()) return std::nullopt;
  const auto n = static_cast<long long>(xs.size());
  const auto rank = static_cast<long long>(std::ceil(q * static_cast<double>(n)));
  if (n - rank < kMinTail) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(rank - 1)];
}

// ---- seeded inputs ----------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  lac::Rng rng(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
  return rng();
}

}  // namespace

std::vector<lac::bench89::SuiteEntry> seeded_suite(std::uint64_t seed) {
  std::vector<lac::bench89::SuiteEntry> suite = lac::bench89::table1_suite();
  if (seed == kDefaultSeed) return suite;
  for (auto& e : suite) e.spec.seed = mix(e.spec.seed, seed);
  return suite;
}

planner::PlannerConfig table1_config(const lac::bench89::SuiteEntry& entry) {
  planner::PlannerConfig cfg;
  cfg.run.seed = 7;  // bench/table1_main's planner seed
  cfg.num_blocks = entry.recommended_blocks;
  return cfg;
}

const char* kind_name(EcoStep::Kind k) {
  switch (k) {
    case EcoStep::Kind::kResizeCell: return "resize_cell";
    case EcoStep::Kind::kScaleBlockCapacity: return "scale_block_capacity";
    case EcoStep::Kind::kResizeBlock: return "resize_block";
    case EcoStep::Kind::kBuffer: return "add_buffer";
    case EcoStep::Kind::kRemoveCell: return "remove_cell";
  }
  return "?";
}

std::vector<EcoStep> eco_journal(std::uint64_t seed,
                                 const std::vector<netlist::Netlist>& circuits,
                                 const std::vector<int>& num_blocks, int ops,
                                 int cold_every) {
  LAC_CHECK(circuits.size() == num_blocks.size() && !circuits.empty());
  LAC_CHECK(ops % 2 == 0 && cold_every >= 1);
  // Candidate edit targets per circuit, from the unedited netlists: gates
  // to resize, and driver->sink connections to buffer (each at most once,
  // so every buffered connection still exists when its step runs).
  std::vector<std::vector<netlist::CellId>> gates(circuits.size());
  std::vector<std::vector<std::pair<netlist::CellId, netlist::CellId>>> conns(
      circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const auto& nl = circuits[c];
    for (const auto id : nl.cells()) {
      const auto t = nl.type(id);
      if (t == netlist::CellType::kInput || t == netlist::CellType::kOutput ||
          t == netlist::CellType::kDff)
        continue;
      gates[c].push_back(id);
      for (const auto f : nl.fanins(id))
        if (nl.type(f) != netlist::CellType::kDff) conns[c].emplace_back(f, id);
    }
  }

  // The edits: what-if pairs of an edit and the edit that undoes it, so a
  // session stays near its initial plan and an op's cost depends on its own
  // edit, not on how far earlier edits drifted the design.  Pairs cycle
  // through (circuit, edit kind); their targets and sizes come from a fixed
  // stream, so every seed times the same set of edits.
  lac::Rng pick(0xEC0);
  std::vector<std::set<std::size_t>> buffered(circuits.size());
  std::vector<std::pair<EcoStep, EcoStep>> pairs;
  for (int i = 0; i < ops / 2; ++i) {
    const int cell = i % (static_cast<int>(circuits.size()) * 4);
    EcoStep s;
    s.circuit = cell / 4;
    s.kind = static_cast<EcoStep::Kind>(cell % 4);
    const auto c = static_cast<std::size_t>(s.circuit);
    const auto& nl = circuits[c];
    switch (s.kind) {
      case EcoStep::Kind::kResizeCell:
        s.cell = nl.cell_name(gates[c][pick.uniform(gates[c].size())]);
        s.value = 0.5 + 1.5 * pick.uniform_real();  // [0.5, 2)
        break;
      case EcoStep::Kind::kScaleBlockCapacity:
        s.block = static_cast<int>(pick.uniform(
            static_cast<std::uint64_t>(num_blocks[c])));
        s.value = 0.8 + 0.4 * pick.uniform_real();  // [0.8, 1.2)
        break;
      case EcoStep::Kind::kResizeBlock:
        s.block = static_cast<int>(pick.uniform(
            static_cast<std::uint64_t>(num_blocks[c])));
        s.value = 1.02 + 0.08 * pick.uniform_real();  // grow 2-10%
        break;
      case EcoStep::Kind::kBuffer: {
        std::size_t k = pick.uniform(conns[c].size());
        while (buffered[c].count(k) != 0) k = (k + 1) % conns[c].size();
        buffered[c].insert(k);
        s.driver = nl.cell_name(conns[c][k].first);
        s.sink = nl.cell_name(conns[c][k].second);
        s.name = "eco_buf" + std::to_string(i);
        break;
      }
      case EcoStep::Kind::kRemoveCell:
        break;  // only ever an undo
    }
    EcoStep undo = s;
    undo.value = 1.0 / s.value;
    if (s.kind == EcoStep::Kind::kBuffer) {
      undo.kind = EcoStep::Kind::kRemoveCell;
      undo.cell = s.name;
      undo.name = undo.driver = undo.sink = "";
      undo.value = 1.0;
    }
    pairs.emplace_back(std::move(s), std::move(undo));
  }

  // The seed orders the pairs and picks the steps checked against a cold
  // re-plan.
  lac::Rng order(mix(seed, 0xEC0));
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[order.uniform(i)]);
  std::vector<EcoStep> journal;
  journal.reserve(2 * pairs.size());
  for (auto& [edit, undo] : pairs) {
    for (EcoStep* s : {&edit, &undo}) {
      s->check_cold =
          order.uniform(static_cast<std::uint64_t>(cold_every)) == 0;
      journal.push_back(std::move(*s));
    }
  }
  return journal;
}

// ---- quality fingerprint ----------------------------------------------------

Fingerprint fingerprint(const std::vector<planner::PlanResult>& iterations) {
  LAC_CHECK(!iterations.empty());
  const auto& r = iterations.front();
  Fingerprint f;
  f.circuit = r.circuit;
  f.t_clk_ps = r.t_clk_ps;
  f.t_init_ps = r.t_init_ps;
  f.ma_n_foa = r.min_area.report.n_foa;
  f.ma_n_f = r.min_area.report.n_f;
  f.ma_n_fn = r.min_area.report.n_fn;
  f.lac_n_foa = r.lac.report.n_foa;
  f.lac_n_f = r.lac.report.n_f;
  f.lac_n_fn = r.lac.report.n_fn;
  f.lac_n_wr = r.lac.n_wr;
  if (iterations.size() > 1) f.iter2_n_foa = iterations.back().lac.report.n_foa;
  return f;
}

std::string to_line(const Fingerprint& f) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s t_clk_ps=%.17g t_init_ps=%.17g ma_n_foa=%lld ma_n_f=%lld "
                "ma_n_fn=%lld lac_n_foa=%lld lac_n_f=%lld lac_n_fn=%lld "
                "lac_n_wr=%d iter2_n_foa=%lld",
                f.circuit.c_str(), f.t_clk_ps, f.t_init_ps,
                static_cast<long long>(f.ma_n_foa),
                static_cast<long long>(f.ma_n_f),
                static_cast<long long>(f.ma_n_fn),
                static_cast<long long>(f.lac_n_foa),
                static_cast<long long>(f.lac_n_f),
                static_cast<long long>(f.lac_n_fn), f.lac_n_wr,
                static_cast<long long>(f.iter2_n_foa));
  return buf;
}

std::optional<Fingerprint> parse_line(const std::string& line) {
  std::istringstream in(line);
  Fingerprint f;
  if (!(in >> f.circuit)) return std::nullopt;
  int seen = 0;
  std::string kv;
  while (in >> kv) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    try {
      if (key == "t_clk_ps") f.t_clk_ps = std::stod(val);
      else if (key == "t_init_ps") f.t_init_ps = std::stod(val);
      else if (key == "ma_n_foa") f.ma_n_foa = std::stoll(val);
      else if (key == "ma_n_f") f.ma_n_f = std::stoll(val);
      else if (key == "ma_n_fn") f.ma_n_fn = std::stoll(val);
      else if (key == "lac_n_foa") f.lac_n_foa = std::stoll(val);
      else if (key == "lac_n_f") f.lac_n_f = std::stoll(val);
      else if (key == "lac_n_fn") f.lac_n_fn = std::stoll(val);
      else if (key == "lac_n_wr") f.lac_n_wr = std::stoi(val);
      else if (key == "iter2_n_foa") f.iter2_n_foa = std::stoll(val);
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
    ++seen;
  }
  if (seen != 10) return std::nullopt;
  return f;
}

std::vector<std::string> diff(const Fingerprint& want, const Fingerprint& got) {
  std::vector<std::string> out;
  auto cmp = [&](const char* field, auto a, auto b) {
    if (a == b) return;
    std::ostringstream os;
    os.precision(17);
    os << want.circuit << '.' << field << ": want " << a << ", got " << b;
    out.push_back(os.str());
  };
  if (want.circuit != got.circuit)
    out.push_back("circuit: want " + want.circuit + ", got " + got.circuit);
  cmp("t_clk_ps", want.t_clk_ps, got.t_clk_ps);
  cmp("t_init_ps", want.t_init_ps, got.t_init_ps);
  cmp("ma_n_foa", want.ma_n_foa, got.ma_n_foa);
  cmp("ma_n_f", want.ma_n_f, got.ma_n_f);
  cmp("ma_n_fn", want.ma_n_fn, got.ma_n_fn);
  cmp("lac_n_foa", want.lac_n_foa, got.lac_n_foa);
  cmp("lac_n_f", want.lac_n_f, got.lac_n_f);
  cmp("lac_n_fn", want.lac_n_fn, got.lac_n_fn);
  cmp("lac_n_wr", want.lac_n_wr, got.lac_n_wr);
  cmp("iter2_n_foa", want.iter2_n_foa, got.iter2_n_foa);
  return out;
}

std::vector<Fingerprint> read_golden(const std::string& path) {
  std::ifstream in(path);
  LAC_CHECK_MSG(in.good(), "cannot read golden fingerprint " << path);
  std::vector<Fingerprint> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto f = parse_line(line);
    LAC_CHECK_MSG(f.has_value(), "malformed golden line: " << line);
    out.push_back(std::move(*f));
  }
  return out;
}

std::string golden_path() {
  return std::string(LACBENCH_GOLDEN_DIR) + "/table1.txt";
}

std::vector<std::string> compare_plans(const planner::PlanResult& want,
                                       const planner::PlanResult& got) {
  std::vector<std::string> out = diff(fingerprint({want}), fingerprint({got}));
  if (want.t_min_ps != got.t_min_ps) out.push_back("t_min_ps differs");
  if (want.block_of != got.block_of) out.push_back("block_of differs");
  if (want.fp.placement != got.fp.placement) out.push_back("placement differs");
  if (want.repeaters != got.repeaters) out.push_back("repeaters differ");
  if (want.clock_constraints != got.clock_constraints)
    out.push_back("clock_constraints differ");
  if (want.min_area.r != got.min_area.r) out.push_back("min-area retiming differs");
  if (want.lac.r != got.lac.r) out.push_back("LAC retiming differs");
  return out;
}

// ---- spans ------------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::open(std::string name, int op, int parent) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), t, t, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_s = t;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const auto& s : spans_)
    if (s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

std::string Tracer::to_json() const {
  lac::obs::json::Writer w;
  w.begin_object();
  w.kv("schema", "lacbench-trace/1");
  w.key("spans");
  w.begin_array();
  for (const auto& s : spans()) {
    w.begin_object();
    w.kv("name", std::string_view(s.name));
    w.kv("start_s", s.start_s);
    w.kv("end_s", s.end_s);
    w.kv("parent", s.parent);
    w.kv("op", s.op);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

// ---- process measurements ---------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(lac::obs::memory::peak_rss_bytes()) / 1e6;
}

}  // namespace lacbench
