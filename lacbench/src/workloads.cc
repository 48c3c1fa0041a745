#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/check.h"
#include "base/exec_policy.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/stream.h"
#include "partition/fm.h"
#include "planner/plan_session.h"
#include "planner/verify.h"
#include "repeater/repeater_planner.h"
#include "retime/collapse.h"
#include "retime/constraints.h"
#include "retime/lac_retimer.h"
#include "retime/min_area.h"
#include "retime/wd_matrices.h"
#include "route/global_router.h"
#include "tile/tile_grid.h"

namespace lacbench {

namespace {

namespace fs = std::filesystem;
namespace obs = lac::obs;
namespace planner = lac::planner;
namespace netlist = lac::netlist;
namespace retime = lac::retime;
using lac::bench89::SuiteEntry;
using planner::PlanResult;

constexpr int kTable1SetupReps = 25;  // netlist generations; setup_s = median
constexpr int kEcoSetupReps = 3;      // session builds per pass; median
constexpr int kEcoCircuits = 5;       // y298 .. y641
constexpr int kEcoOps = 120;          // 3 what-if pairs per (circuit, kind);
                                      // a p90 needs >= 100 ops
constexpr int kEcoColdEvery = 12;     // ~10 cold-equivalence checks per pass
constexpr int kParallelThreads = 4;   // capped at nproc
constexpr int kProbeOp = 1 << 20;     // op id of the seeded probe

int parallel_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max(1, std::min(kParallelThreads, static_cast<int>(hc)));
}

// ---- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<SuiteEntry> entries;
  std::vector<netlist::Netlist> nets;
};

// The timed workloads plan the shipped Table-1 circuits at every seed (see
// README.md, "Seeds"); the seed drives the ECO journal, the sampled
// checks, and the re-seeded probe circuit.
Inputs make_inputs(std::size_t count) {
  Inputs in;
  in.entries = lac::bench89::table1_suite();
  in.entries.resize(std::min(count, in.entries.size()));
  for (const auto& e : in.entries) in.nets.push_back(lac::bench89::load(e));
  return in;
}

std::int64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

std::int64_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::int64_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

// ---- correctness bookkeeping ------------------------------------------------

// Failures per op id; an op fails once however many of its checks fail.
struct Checks {
  std::map<int, std::vector<std::string>> failures;

  void fail(int op, std::string why) { failures[op].push_back(std::move(why)); }
  void fail_all(int op, const std::vector<std::string>& whys) {
    for (const auto& w : whys) fail(op, w);
  }
  void verify(int op, const PlanResult& res,
              const planner::PlannerConfig& cfg) {
    const auto rep = planner::verify_plan(res, cfg);
    if (!rep.ok()) fail(op, res.circuit + ": verify_plan: " + rep.to_string());
  }
};

// ---- layer replay -------------------------------------------------------------
//
// Re-runs each layer's public call on the planner's iteration-1 artifacts,
// inside the benchmark's spans, and asserts the outputs are bit-identical
// to what the planner produced.  The glue between calls (cell areas, block
// sizing, net extraction) mirrors planner/pipeline.cc.

double cell_area_of(const netlist::Netlist& nl, netlist::CellId c,
                    const lac::timing::Technology& tech) {
  switch (nl.type(c)) {
    case netlist::CellType::kDff: return tech.dff_area;
    case netlist::CellType::kInput:
    case netlist::CellType::kOutput: return tech.dff_area * 0.25;
    default: return tech.gate_area;
  }
}

struct LayerCounts {
  double cells = 0, cut = 0, tiles = 0, nets = 0, nets_rerouted = 0;
  double repeaters = 0, vertices = 0, clock_constraints = 0, lac_rounds = 0;
  double ma_phases = 0, ma_augmentations = 0, wd_mb = 0;
};

void replay_layers(const netlist::Netlist& nl,
                   const planner::PlannerConfig& cfg, const PlanResult& res,
                   Tracer& t, int op, LayerCounts& cnt,
                   std::vector<std::string>& errs) {
  Scope root(&t, "replay", op);
  const int p = root.id();
  auto expect = [&](bool ok, const char* what) {
    if (!ok) errs.push_back(res.circuit + ": replay " + what + " differs");
  };
  const auto& tech = cfg.tech;

  // partition
  std::vector<double> cell_area(static_cast<std::size_t>(nl.num_cells()));
  for (const auto c : nl.cells()) cell_area[c.index()] = cell_area_of(nl, c, tech);
  lac::partition::FmOptions fm_opt;
  fm_opt.seed = cfg.run.seed;
  lac::partition::KWayResult part;
  {
    Scope s(&t, "partition.partition_netlist", op, p);
    part = lac::partition::partition_netlist(nl, cell_area, cfg.num_blocks,
                                             fm_opt);
  }
  expect(part.block_of == res.block_of, "block_of");
  cnt.cut += part.cut;
  cnt.cells += nl.num_cells();

  // floorplan
  std::vector<lac::floorplan::BlockSpec> specs(
      static_cast<std::size_t>(cfg.num_blocks));
  for (int b = 0; b < cfg.num_blocks; ++b)
    specs[static_cast<std::size_t>(b)].name = "blk" + std::to_string(b);
  for (const auto c : nl.cells()) {
    double a = cell_area_of(nl, c, tech);
    if (nl.type(c) == netlist::CellType::kDff)
      a = tech.dff_area * cfg.dff_provision_factor *
          static_cast<double>(std::max<std::size_t>(1, nl.fanouts(c).size()));
    specs[static_cast<std::size_t>(part.block_of[c.index()])].area += a;
  }
  const int hard_every =
      cfg.hard_block_fraction > 0.0
          ? std::max(1, static_cast<int>(1.0 / cfg.hard_block_fraction))
          : 0;
  for (int b = 0; b < cfg.num_blocks; ++b) {
    auto& spec = specs[static_cast<std::size_t>(b)];
    spec.area = std::max(spec.area, tech.gate_area);
    spec.area *= 1.0 + cfg.block_area_slack;
    if (hard_every > 0 && b % hard_every == hard_every - 1) {
      spec.hard = true;
      const auto side = std::max<lac::Coord>(
          1, static_cast<lac::Coord>(std::llround(std::sqrt(spec.area))));
      spec.fixed_w = side;
      spec.fixed_h = side;
    }
  }
  lac::floorplan::FloorplanOptions fp_opt = cfg.fp_opt;
  fp_opt.seed = cfg.run.seed;
  lac::floorplan::Floorplan fp;
  {
    Scope s(&t, "floorplan.floorplan_blocks", op, p);
    fp = lac::floorplan::floorplan_blocks(std::move(specs), fp_opt);
  }
  expect(fp.placement == res.fp.placement && fp.chip == res.fp.chip,
         "fp.placement");

  // tile grid: a fresh one — res.grid already holds the repeaters' area.
  std::vector<lac::Point> pos(static_cast<std::size_t>(nl.num_cells()));
  for (const auto c : nl.cells())
    pos[c.index()] =
        res.fp.placement[static_cast<std::size_t>(res.block_of[c.index()])]
            .center();
  std::vector<double> used(static_cast<std::size_t>(res.fp.num_blocks()), 0.0);
  for (const auto c : nl.cells())
    if (nl.type(c) != netlist::CellType::kDff)
      used[static_cast<std::size_t>(res.block_of[c.index()])] +=
          cell_area_of(nl, c, tech);
  std::optional<lac::tile::TileGrid> grid;
  {
    Scope s(&t, "tile.TileGrid", op, p);
    grid.emplace(res.fp, used, cfg.tile_opt);
  }
  cnt.tiles += grid->num_tiles();

  // route: collapse registers into driver nets, then route them all.
  std::vector<retime::Connection> connections;
  {
    Scope s(&t, "retime.collapse_registers", op, p);
    connections = retime::collapse_registers(nl);
  }
  struct Net {
    lac::route::Cell source;
    std::vector<lac::route::Cell> sinks;
    std::unordered_map<int, int> sink_index_of;
  };
  std::map<int, Net> nets;
  for (const auto& conn : connections) {
    const auto [sx, sy] = grid->cell_of_point(pos[conn.driver.index()]);
    const auto [tx, ty] = grid->cell_of_point(pos[conn.sink.index()]);
    auto& net = nets[conn.driver.value()];
    net.source = {sx, sy};
    const int cell_idx = ty * grid->nx() + tx;
    if (net.sink_index_of.emplace(cell_idx, static_cast<int>(net.sinks.size()))
            .second)
      net.sinks.push_back({tx, ty});
  }
  std::vector<lac::route::RouteRequest> requests;
  for (const auto& [driver, net] : nets)
    requests.push_back({net.source, net.sinks});
  lac::route::GlobalRouter router(*grid, cfg.route_opt);
  std::vector<lac::route::RouteTree> trees;
  {
    Scope s(&t, "route.route_all", op, p);
    trees = router.route_all(requests);
  }
  const auto& rs = router.stats();
  const auto& want = res.routing;
  expect(rs.total_wirelength_um == want.total_wirelength_um &&
             rs.overflowed_edges == want.overflowed_edges &&
             rs.max_usage == want.max_usage &&
             rs.ripup_rounds_used == want.ripup_rounds_used &&
             rs.nets_routed == want.nets_routed &&
             rs.nets_rerouted == want.nets_rerouted &&
             rs.usage_histogram == want.usage_histogram &&
             rs.idle_edges == want.idle_edges,
         "RoutingStats");
  cnt.nets += rs.nets_routed;
  cnt.nets_rerouted += static_cast<double>(rs.nets_rerouted);

  // repeaters, planned tree by tree on the fresh grid.
  lac::repeater::RepeaterPlanner rep(*grid, tech, cfg.repeater_opt);
  {
    Scope s(&t, "repeater.plan", op, p);
    for (const auto& tree : trees)
      (void)rep.plan(tree, tech.gate_out_res, tech.gate_in_cap);
  }
  expect(rep.repeaters_inserted() == res.repeaters, "repeaters");
  bool same_capacity = grid->num_tiles() == res.grid->num_tiles();
  for (int i = 0; same_capacity && i < grid->num_tiles(); ++i)
    same_capacity = grid->capacity(lac::tile::TileId{i}) ==
                    res.grid->capacity(lac::tile::TileId{i});
  expect(same_capacity, "tile capacities after repeaters");
  cnt.repeaters += rep.repeaters_inserted();

  // retime, on the planner's own retiming graph.
  const auto& g = res.graph;
  cnt.vertices += g.num_vertices();
  std::optional<retime::WdMatrices> wd;
  {
    Scope s(&t, "retime.WdMatrices::compute", op, p);
    wd.emplace(retime::WdMatrices::compute(g, cfg.run.exec));
  }
  cnt.wd_mb = std::max(cnt.wd_mb, static_cast<double>(wd->bytes_used()) / 1e6);
  expect(wd->t_init_ps() == res.t_init_ps, "t_init_ps");
  double t_min = 0.0;
  {
    Scope s(&t, "retime.min_period_retiming", op, p);
    t_min = retime::min_period_retiming(g, *wd);
  }
  expect(t_min == res.t_min_ps, "t_min_ps");
  const std::int32_t t_min_decips = retime::to_decips(t_min);
  bool feasible = false, infeasible = false;
  {
    Scope s(&t, "retime.period_feasible@tmin", op, p);
    feasible = retime::period_feasible(g, *wd, t_min_decips);
  }
  {
    Scope s(&t, "retime.period_feasible@tmin-1", op, p);
    infeasible = !retime::period_feasible(g, *wd, t_min_decips - 1);
  }
  expect(feasible && infeasible, "T_min probe feasibility");
  const double t_clk =
      t_min + cfg.clock_slack_fraction * (wd->t_init_ps() - t_min);
  expect(t_clk == res.t_clk_ps, "t_clk_ps");
  retime::ConstraintSet cs;
  {
    Scope s(&t, "retime.build_constraints", op, p);
    cs = retime::build_constraints(g, *wd, retime::to_decips(t_clk));
  }
  expect(cs.clock.size() == res.clock_constraints, "clock constraints");
  cnt.clock_constraints += static_cast<double>(cs.clock.size());

  retime::MinAreaStats ma_stats;
  std::optional<std::vector<int>> ma_r;
  {
    Scope s(&t, "retime.min_area_retiming", op, p);
    ma_r = retime::min_area_retiming(g, cs, &ma_stats);
  }
  expect(ma_r.has_value() && *ma_r == res.min_area.r, "min-area retiming");
  cnt.ma_phases += ma_stats.phases;
  cnt.ma_augmentations += ma_stats.augmentations;
  if (ma_r.has_value()) {
    retime::AreaReport ma_rep;
    {
      Scope s(&t, "retime.place_flipflops", op, p);
      ma_rep = retime::place_flipflops(g, *res.grid, *ma_r, tech.dff_area);
    }
    expect(ma_rep.n_foa == res.min_area.report.n_foa &&
               ma_rep.n_f == res.min_area.report.n_f &&
               ma_rep.n_fn == res.min_area.report.n_fn &&
               ma_rep.ac == res.min_area.report.ac,
           "min-area area report");
  }
  retime::LacResult lac;
  {
    Scope s(&t, "retime.lac_retiming", op, p);
    lac = retime::lac_retiming(g, *res.grid, cs, cfg.lac_opt);
  }
  expect(lac.r == res.lac.r && lac.n_wr == res.lac.n_wr &&
             lac.report.n_foa == res.lac.report.n_foa &&
             lac.report.n_f == res.lac.report.n_f,
         "LAC retiming");
  cnt.lac_rounds += lac.n_wr;
}

// ---- planner work accounting ---------------------------------------------------

struct PlanWork {
  // LacRoundStats over every planner result of the timed ops.
  double lac_phases = 0, lac_augmentations = 0, lac_solve_s = 0,
         lac_warm_rounds = 0;
  // EcoStats over every end_eco() of the timed ops.
  double ecos = 0, invalidated_nets = 0, routes_reused = 0, routes_total = 0,
         wd_rebuilt = 0, wd_total = 0, rep_replays = 0, rep_total = 0,
         lac_warm = 0;
  // Quality over every op.
  double lac_n_foa = 0, lac_n_foa_final = 0, lac_n_f = 0, ma_n_foa = 0;
  double decrease_sum = 0, decrease_count = 0;

  void add_rounds(const PlanResult& r) {
    for (const auto& rs : r.lac.rounds) {
      lac_phases += rs.phases;
      lac_augmentations += rs.augmentations;
      lac_solve_s += rs.solve_seconds;
      if (rs.warm) ++lac_warm_rounds;
    }
  }
  void add_eco(const planner::EcoStats& e) {
    ++ecos;
    invalidated_nets += static_cast<double>(e.invalidated_nets);
    const double reused = static_cast<double>(e.reused_routes + e.reused_reroutes);
    routes_reused += reused;
    routes_total += reused + static_cast<double>(e.cold_routes + e.cold_reroutes);
    wd_rebuilt += static_cast<double>(e.wd_rows_rebuilt);
    wd_total += static_cast<double>(e.wd_rows_total);
    rep_replays += static_cast<double>(e.repeater_replays);
    rep_total += static_cast<double>(e.repeater_replays + e.repeater_replans);
    if (e.lac_warm) ++lac_warm;
  }
  // One op's quality: its first result (and final, for the table).
  void add_quality(const PlanResult& first, const PlanResult& last) {
    lac_n_foa += static_cast<double>(first.lac.report.n_foa);
    lac_n_foa_final += static_cast<double>(last.lac.report.n_foa);
    lac_n_f += static_cast<double>(first.lac.report.n_f);
    ma_n_foa += static_cast<double>(first.min_area.report.n_foa);
    if (first.min_area.report.n_foa > 0) {
      decrease_sum += first.foa_decrease_pct();
      ++decrease_count;
    }
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- one measured pass -----------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> op_s;
  double report_s = 0.0;
  std::int64_t report_bytes = 0;
  std::int64_t stream_bytes = 0;
  std::int64_t stream_events = 0;
  std::vector<double> setup_s;   // setup samples taken for this pass
  PlanWork work;
  // Per circuit: the planner's results (table1: both iterations; eco:
  // the initial plan, traced passes only) and its normalized config.
  std::vector<std::vector<PlanResult>> results;
  std::vector<planner::PlannerConfig> config;
};

double write_report(const Options& opt, const std::string& tag,
                    std::int64_t* bytes) {
  const std::string path = opt.out_dir + "/" + tag + ".report.json";
  const double t0 = now_s();
  std::string err;
  if (!obs::write_report(path, "lacbench." + opt.workload, {}, &err))
    LAC_CHECK_MSG(false, "report write failed: " << err);
  const double dt = now_s() - t0;
  *bytes = file_size(path);
  return dt;
}

struct OpOut {
  std::vector<PlanResult> iterations;
  std::optional<planner::EcoStats> eco;
  planner::PlannerConfig config;  // normalized
  double seconds = 0.0;
  std::string error;
};

// One table1 pass.  Untraced ops are the public plan(nl, {2}) call; traced
// ops run the same two iterations through PlanSession so each iteration
// gets its own span.
Pass table1_pass(const Options& opt, bool parallel, const Inputs& in,
                 Tracer* tracer, const std::string& tag, Checks& checks,
                 int op_base) {
  Pass pass;
  const std::size_t n = in.nets.size();
  const int threads = parallel ? parallel_threads() : 1;
  auto run_op = [&](std::size_t i) {
    OpOut out;
    const int op = op_base + static_cast<int>(i);
    planner::PlannerConfig cfg = table1_config(in.entries[i]);
    cfg.run.exec = lac::base::ExecPolicy{.threads = threads};
    const double t0 = now_s();
    try {
      const planner::InterconnectPlanner planner(cfg);
      out.config = planner.config();
      if (tracer == nullptr) {
        out.iterations =
            planner.plan(in.nets[i], planner::PlanOptions{.max_iterations = 2});
      } else {
        Scope span(tracer, "op", op);
        std::optional<planner::PlanSession> s;
        {
          Scope it(tracer, "planner.iter1", op, span.id());
          s.emplace(in.nets[i], cfg);
        }
        out.iterations.push_back(s->result());
        if (!s->result().lac.report.fits()) {
          Scope it(tracer, "planner.iter2", op, span.id());
          s->begin_eco();
          s->expand_blocks();
          out.iterations.push_back(s->end_eco());
          out.eco = s->last_eco();
        }
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    out.seconds = now_s() - t0;
    return out;
  };

  const double c0 = cpu_s();
  const double t0 = now_s();
  std::vector<OpOut> outs;
  if (parallel) {
    outs = lac::base::parallel_map<OpOut>(
        lac::base::ExecPolicy{.threads = threads}, n, run_op);
  } else {
    for (std::size_t i = 0; i < n; ++i) outs.push_back(run_op(i));
  }
  {
    Scope span(tracer, "obs.write_report", -1);
    pass.report_s = write_report(opt, tag, &pass.report_bytes);
  }
  pass.wall_s = now_s() - t0;
  pass.cpu_s = cpu_s() - c0;

  // Checks, outside the timed phase.
  // Every circuit must match its golden Table-1 row.
  const std::vector<Fingerprint> golden = read_golden(golden_path());
  std::ofstream fingerprints(opt.out_dir + "/" + tag + ".fingerprint.txt");
  for (std::size_t i = 0; i < n; ++i) {
    const int op = op_base + static_cast<int>(i);
    auto& o = outs[i];
    pass.op_s.push_back(o.seconds);
    if (!o.error.empty()) {
      checks.fail(op, in.entries[i].spec.name + ": " + o.error);
      continue;
    }
    for (const auto& r : o.iterations) checks.verify(op, r, o.config);
    const auto fp = fingerprint(o.iterations);
    fingerprints << to_line(fp) << '\n';
    const auto it =
        std::find_if(golden.begin(), golden.end(),
                     [&](const Fingerprint& g) { return g.circuit == fp.circuit; });
    if (it == golden.end())
      checks.fail(op, fp.circuit + ": no golden fingerprint");
    else
      checks.fail_all(op, diff(*it, fp));
    pass.work.add_quality(o.iterations.front(), o.iterations.back());
    for (const auto& r : o.iterations) pass.work.add_rounds(r);
    if (o.eco.has_value()) pass.work.add_eco(*o.eco);
  }
  for (auto& o : outs) {
    pass.results.push_back(std::move(o.iterations));
    pass.config.push_back(std::move(o.config));
  }
  return pass;
}

// table1_parallel must reproduce table1_serial: re-plan a seeded sample of
// circuits serially with observability off and compare bit for bit.
void check_parallel_matches_serial(const Options& opt, const Inputs& in,
                                   const Pass& pass, Checks& checks,
                                   int op_base) {
  obs::ScopedEnable off(false);
  lac::Rng rng(opt.seed ^ 0x5E41A1ULL);
  const std::size_t pool = std::min<std::size_t>(in.nets.size(), 8);
  std::vector<std::size_t> sample;
  while (sample.size() < std::min<std::size_t>(2, pool)) {
    const std::size_t i = rng.uniform(pool);
    if (std::find(sample.begin(), sample.end(), i) == sample.end())
      sample.push_back(i);
  }
  for (const std::size_t i : sample) {
    const int op = op_base + static_cast<int>(i);
    const auto& got = pass.results[i];
    if (got.empty()) continue;  // the op already failed
    planner::PlannerConfig cfg = table1_config(in.entries[i]);
    cfg.run.exec = lac::base::ExecPolicy::sequential();
    try {
      const auto want = planner::InterconnectPlanner(cfg).plan(
          in.nets[i], planner::PlanOptions{.max_iterations = 2});
      if (want.size() != got.size())
        checks.fail(op, in.entries[i].spec.name + ": iteration count differs");
      for (std::size_t k = 0; k < std::min(want.size(), got.size()); ++k)
        checks.fail_all(op, compare_plans(want[k], got[k]));
    } catch (const std::exception& e) {
      checks.fail(op, in.entries[i].spec.name + ": " + e.what());
    }
  }
}

// ---- eco_interactive -------------------------------------------------------------

struct EcoSetup {
  Inputs in;
  std::vector<std::unique_ptr<planner::PlanSession>> sessions;
};

EcoSetup eco_setup(const Options& opt, Tracer* tracer, int op_base) {
  EcoSetup s;
  s.in = make_inputs(opt.smoke ? 2 : kEcoCircuits);
  for (std::size_t i = 0; i < s.in.nets.size(); ++i) {
    planner::PlannerConfig cfg = table1_config(s.in.entries[i]);
    cfg.run.exec = lac::base::ExecPolicy::sequential();
    Scope span(tracer, "planner.iter1", op_base + static_cast<int>(i));
    s.sessions.push_back(
        std::make_unique<planner::PlanSession>(s.in.nets[i], cfg));
  }
  return s;
}

void apply_step(planner::PlanSession& s, const EcoStep& step) {
  switch (step.kind) {
    case EcoStep::Kind::kResizeCell:
      s.resize_cell(step.cell, step.value);
      break;
    case EcoStep::Kind::kScaleBlockCapacity:
      s.scale_block_capacity(step.block, step.value);
      break;
    case EcoStep::Kind::kResizeBlock:
      s.resize_block(step.block,
                     s.result().fp.blocks.at(static_cast<std::size_t>(step.block))
                             .area *
                         step.value);
      break;
    case EcoStep::Kind::kBuffer:
      (void)s.add_buffer(step.name, step.driver, step.sink);
      break;
    case EcoStep::Kind::kRemoveCell:
      s.remove_cell(step.cell);
      break;
  }
}

Pass eco_pass(const Options& opt, Tracer* tracer, const std::string& tag,
              Checks& checks, int op_base) {
  Pass pass;
  const std::string stream_path = opt.out_dir + "/" + tag + ".events.jsonl";
  std::string err;
  LAC_CHECK_MSG(obs::stream::open(stream_path, "lacbench.eco_interactive", &err),
                "cannot open event stream: " << err);
  std::optional<EcoSetup> setup;
  for (int rep = 0; rep < kEcoSetupReps; ++rep) {
    setup.reset();
    const bool last = rep + 1 == kEcoSetupReps;
    const double t0 = now_s();
    setup.emplace(eco_setup(opt, last ? tracer : nullptr, op_base));
    pass.setup_s.push_back(now_s() - t0);
  }
  auto& sessions = setup->sessions;
  std::vector<int> blocks;
  for (const auto& e : setup->in.entries) blocks.push_back(e.recommended_blocks);
  const int ops = opt.smoke ? 16 : kEcoOps;
  const auto journal = eco_journal(opt.seed, setup->in.nets, blocks, ops,
                                   opt.smoke ? 3 : kEcoColdEvery);
  if (tracer != nullptr)
    for (const auto& s : sessions) {
      pass.results.push_back({s->result()});
      pass.config.push_back(s->config());
    }
  const std::int64_t stream_base = file_size(stream_path);
  const std::int64_t events_base = count_lines(stream_path);

  // One line per op, for reading where the time went.
  std::ofstream op_log(opt.out_dir + "/" + tag + ".ops.csv");
  op_log << "op,circuit,kind,seconds,lac_n_wr,lac_warm,invalidated_nets,"
            "wd_rows_rebuilt,wd_rows_total\n";
  double cpu = 0.0;
  for (std::size_t k = 0; k < journal.size(); ++k) {
    const EcoStep& step = journal[k];
    const int op = op_base + static_cast<int>(sessions.size() + k);
    auto& s = *sessions[static_cast<std::size_t>(step.circuit)];
    const double c0 = cpu_s();
    const double t0 = now_s();
    const PlanResult* res = nullptr;
    std::string error;
    {
      Scope span(tracer, "op", op);
      Scope eco(tracer, "planner.eco", op, span.id());
      try {
        s.begin_eco();
        apply_step(s, step);
        res = &s.end_eco();
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    pass.op_s.push_back(now_s() - t0);
    cpu += cpu_s() - c0;
    // Checks, outside the timed op.
    const std::string what = s.netlist().name() + " " + kind_name(step.kind);
    if (res == nullptr) {
      checks.fail(op, what + ": " + error);
      continue;
    }
    checks.verify(op, *res, s.config());
    if (step.check_cold) {
      obs::ScopedEnable off(false);
      try {
        checks.fail_all(op, compare_plans(s.replan_cold(), *res));
      } catch (const std::exception& e) {
        checks.fail(op, what + ": replan_cold: " + e.what());
      }
    }
    const planner::EcoStats& e = s.last_eco();
    op_log << k << ',' << s.netlist().name() << ',' << kind_name(step.kind)
           << ',' << pass.op_s.back() << ',' << res->lac.n_wr << ','
           << e.lac_warm << ',' << e.invalidated_nets << ','
           << e.wd_rows_rebuilt << ',' << e.wd_rows_total << '\n';
    pass.work.add_quality(*res, *res);
    pass.work.add_rounds(*res);
    pass.work.add_eco(s.last_eco());
  }
  const double report_cpu0 = cpu_s();
  {
    Scope span(tracer, "obs.write_report", -1);
    pass.report_s = write_report(opt, tag, &pass.report_bytes);
  }
  cpu += cpu_s() - report_cpu0;
  obs::stream::close();
  pass.stream_bytes = file_size(stream_path) - stream_base;
  pass.stream_events = count_lines(stream_path) - events_base;
  double ops_s = 0.0;
  for (const double t : pass.op_s) ops_s += t;
  pass.wall_s = ops_s + pass.report_s;
  pass.cpu_s = cpu;
  return pass;
}

// The seeded probe: a re-seeded variant of one of the four smallest
// Table-1 size points (GenSpec::seed drawn from --seed, same size
// statistics), planned outside the timed phase, so every seed also checks
// the planner on an input no other seed produces.  table1_*: both
// iterations pass verify_plan; eco_interactive: four journal steps on it
// each match replan_cold().
void seeded_probe(const Options& opt, Checks& checks, int op) {
  obs::ScopedEnable off(false);
  const auto suite = seeded_suite(opt.seed);
  lac::Rng rng(opt.seed ^ 0x9A0BEULL);
  const auto& entry = suite[rng.uniform(4)];
  try {
    const auto nl = lac::bench89::load(entry);
    planner::PlannerConfig cfg = table1_config(entry);
    cfg.run.exec = lac::base::ExecPolicy::sequential();
    if (opt.workload != "eco_interactive") {
      const planner::InterconnectPlanner pl(cfg);
      for (const auto& r : pl.plan(nl, planner::PlanOptions{.max_iterations = 2}))
        checks.verify(op, r, pl.config());
      return;
    }
    planner::PlanSession s(nl, cfg);
    for (const auto& step :
         eco_journal(opt.seed, {nl}, {cfg.num_blocks}, 4, 1)) {
      s.begin_eco();
      apply_step(s, step);
      const PlanResult& res = s.end_eco();
      checks.verify(op, res, s.config());
      checks.fail_all(op, compare_plans(s.replan_cold(), res));
    }
  } catch (const std::exception& e) {
    checks.fail(op, "probe " + entry.spec.name + ": " + e.what());
  }
}

// ---- metrics -------------------------------------------------------------------

std::vector<double> table1_setup_samples(std::size_t count,
                                         Inputs* keep) {
  // One untimed generation first: the timed ones then start from a warm
  // process instead of whatever state the previous run left the CPU in.
  (void)make_inputs(count);
  std::vector<double> samples;
  for (int rep = 0; rep < kTable1SetupReps; ++rep) {
    const double t0 = now_s();
    Inputs in = make_inputs(count);
    samples.push_back(now_s() - t0);
    if (rep + 1 == kTable1SetupReps) *keep = std::move(in);
  }
  return samples;
}

void add(Result& r, std::string name, double value, std::string unit) {
  r.metrics.push_back({std::move(name), value, std::move(unit)});
}

// Runs passes while another one is expected to fit in opt.seconds (always
// at least one).
template <typename F>
std::vector<Pass> run_passes(const Options& opt, F&& one_pass) {
  std::vector<Pass> passes;
  const double start = now_s();
  do {
    passes.push_back(one_pass(static_cast<int>(passes.size())));
  } while (now_s() - start + passes.back().wall_s <= opt.seconds);
  return passes;
}

std::vector<double> walls_of(const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const auto& p : passes) walls.push_back(p.wall_s);
  return walls;
}

void end_to_end(Result& r, const std::vector<Pass>& passes,
                const std::vector<double>& setup) {
  std::vector<double> cpus, ops;
  for (const auto& p : passes) {
    cpus.push_back(p.cpu_s);
    ops.insert(ops.end(), p.op_s.begin(), p.op_s.end());
  }
  const PlanWork& w = passes.front().work;
  add(r, "wall_s", *median(walls_of(passes)), "s");
  add(r, "setup_s", *median(setup), "s");
  add(r, "cpu_s", *median(cpus), "s");
  add(r, "op_s.p50", *median(ops), "s");
  add(r, "peak_rss_mb", peak_rss_mb(), "MB");
  add(r, "lac_n_foa", w.lac_n_foa, "count");
  add(r, "lac_n_f", w.lac_n_f, "count");
  char buf[256];
  const auto p90 = tail_percentile(ops, 0.9);
  std::snprintf(buf, sizeof buf,
                "ops=%zu op_s.p90=%s lac_n_foa_final=%.0f ma_n_foa=%.0f "
                "foa_decrease_pct=%.2f passes=%zu",
                ops.size(),
                p90.has_value() ? std::to_string(*p90).c_str()
                                : "n/a (<10 samples beyond)",
                w.lac_n_foa_final, w.ma_n_foa,
                ratio(w.decrease_sum, w.decrease_count), passes.size());
  r.notes.emplace_back(buf);
  std::string walls = "pass wall_s:";
  for (const double x : walls_of(passes)) walls += " " + std::to_string(x);
  r.notes.push_back(walls);
}

void per_layer(Result& r, const Options& opt, const Pass& untraced,
               const Pass& traced, const Tracer& t, const LayerCounts& c,
               const std::vector<double>& load_s, int threads) {
  const auto T = [&](const char* name) { return t.total(name); };
  const double iter1 = T("planner.iter1");
  const double iter2 =
      opt.workload == "eco_interactive" ? T("planner.eco") : T("planner.iter2");
  const double replayed =
      T("partition.partition_netlist") + T("floorplan.floorplan_blocks") +
      T("tile.TileGrid") + T("retime.collapse_registers") +
      T("route.route_all") + T("repeater.plan") +
      T("retime.WdMatrices::compute") + T("retime.min_period_retiming") +
      T("retime.build_constraints") + T("retime.min_area_retiming") +
      T("retime.place_flipflops") + T("retime.lac_retiming");
  add(r, "planner.iter1_s", iter1, "s");
  add(r, "planner.iter2_s", iter2, "s");
  add(r, "planner.other_s", iter1 - replayed, "s");
  add(r, "netlist.load_s", *median(load_s), "s");
  add(r, "netlist.cells", c.cells, "count");
  add(r, "partition.s", T("partition.partition_netlist"), "s");
  add(r, "partition.cut", c.cut, "count");
  add(r, "floorplan.s", T("floorplan.floorplan_blocks"), "s");
  add(r, "tile.s", T("tile.TileGrid"), "s");
  add(r, "tile.tiles", c.tiles, "count");
  add(r, "route.s", T("retime.collapse_registers") + T("route.route_all"), "s");
  add(r, "route.nets", c.nets, "count");
  add(r, "route.nets_rerouted", c.nets_rerouted, "count");
  add(r, "repeater.s", T("repeater.plan"), "s");
  add(r, "repeater.inserted", c.repeaters, "count");
  add(r, "retime.graph_vertices", c.vertices, "count");
  add(r, "retime.wd_s", T("retime.WdMatrices::compute"), "s");
  add(r, "retime.wd_mb", c.wd_mb, "MB");
  add(r, "retime.tmin_s", T("retime.min_period_retiming"), "s");
  add(r, "retime.probe_feasible_s", T("retime.period_feasible@tmin"), "s");
  add(r, "retime.probe_infeasible_s", T("retime.period_feasible@tmin-1"), "s");
  add(r, "retime.constraints_s", T("retime.build_constraints"), "s");
  add(r, "retime.clock_constraints", c.clock_constraints, "count");
  add(r, "retime.min_area_s", T("retime.min_area_retiming"), "s");
  add(r, "retime.place_s", T("retime.place_flipflops"), "s");
  add(r, "retime.lac_s", T("retime.lac_retiming"), "s");
  add(r, "retime.lac_rounds", c.lac_rounds, "count");
  const PlanWork& w = traced.work;
  add(r, "mcf.min_area_phases", c.ma_phases, "count");
  add(r, "mcf.min_area_augmentations", c.ma_augmentations, "count");
  add(r, "mcf.lac_phases", w.lac_phases, "count");
  add(r, "mcf.lac_augmentations", w.lac_augmentations, "count");
  add(r, "mcf.lac_solve_s", w.lac_solve_s, "s");
  add(r, "mcf.lac_warm_rounds", w.lac_warm_rounds, "count");
  add(r, "eco.replans", w.ecos, "count");
  add(r, "eco.invalidated_nets", w.invalidated_nets, "count");
  add(r, "eco.route_reuse_ratio", ratio(w.routes_reused, w.routes_total), "ratio");
  add(r, "eco.wd_rows_rebuilt_ratio", ratio(w.wd_rebuilt, w.wd_total), "ratio");
  add(r, "eco.repeater_replay_ratio", ratio(w.rep_replays, w.rep_total), "ratio");
  add(r, "eco.lac_warm_ratio", ratio(w.lac_warm, w.ecos), "ratio");
  add(r, "obs.report_s", traced.report_s, "s");
  add(r, "obs.report_bytes", static_cast<double>(traced.report_bytes), "bytes");
  add(r, "obs.stream_bytes", static_cast<double>(traced.stream_bytes), "bytes");
  add(r, "obs.stream_events", static_cast<double>(traced.stream_events), "count");
  double longest = 0.0, busy = 0.0;
  for (const double s : traced.op_s) {
    longest = std::max(longest, s);
    busy += s;
  }
  add(r, "parallel.critical_path_s", longest, "s");
  add(r, "parallel.busy_ratio", ratio(busy, threads * traced.wall_s), "ratio");
  add(r, "bench.trace_overhead_pct",
      100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s, "%");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1_serial", "table1_parallel", "eco_interactive"};
  return names;
}

Result run(const Options& opt) {
  const auto& names = workload_names();
  LAC_CHECK_MSG(std::find(names.begin(), names.end(), opt.workload) != names.end(),
                "unknown workload '" << opt.workload << "'");
  fs::create_directories(opt.out_dir);
  const bool eco = opt.workload == "eco_interactive";
  const bool parallel = opt.workload == "table1_parallel";
  // Program observability: off for the serial suite, on otherwise.
  obs::set_enabled(opt.workload != "table1_serial");

  Result result;
  Checks checks;
  std::vector<double> setup;
  Inputs in;
  const std::size_t table1_count = opt.smoke ? 2 : 10;
  int op_base = 0;
  auto pass_fn = [&](Tracer* tracer, const std::string& tag) {
    Pass p;
    if (eco) {
      p = eco_pass(opt, tracer, tag, checks, op_base);
    } else {
      const auto samples = table1_setup_samples(table1_count, &in);
      p = table1_pass(opt, parallel, in, tracer, tag, checks, op_base);
      p.setup_s = samples;
      if (parallel) check_parallel_matches_serial(opt, in, p, checks, op_base);
    }
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    op_base += 1000;
    return p;
  };

  const std::string base = opt.workload;  // artifacts of the last run only
  if (!opt.trace) {
    const auto passes = run_passes(opt, [&](int i) {
      return pass_fn(nullptr, base + ".pass" + std::to_string(i));
    });
    for (const auto& p : passes) result.attempted += static_cast<long long>(p.op_s.size());
    end_to_end(result, passes, setup);
  } else {
    const Pass untraced = pass_fn(nullptr, base + ".untraced");
    Tracer tracer;
    const Pass traced = pass_fn(&tracer, base + ".traced");
    result.attempted = static_cast<long long>(untraced.op_s.size() + traced.op_s.size());
    // Layer replays on the traced pass's iteration-1 artifacts.
    LayerCounts counts;
    std::vector<std::string> errs;
    const Inputs replay_in = make_inputs(traced.results.size());
    for (std::size_t i = 0; i < traced.results.size(); ++i) {
      const int op = op_base - 1000 + static_cast<int>(i);
      if (traced.results[i].empty()) continue;  // the op already failed
      replay_layers(replay_in.nets[i], traced.config[i],
                    traced.results[i].front(), tracer, op, counts, errs);
      checks.fail_all(op, errs);
      errs.clear();
    }
    std::vector<double> load_s;
    for (int rep = 0; rep < kTable1SetupReps; ++rep) {
      Scope span(&tracer, "netlist.generate", -1);
      const double t0 = now_s();
      (void)make_inputs(traced.results.size());
      load_s.push_back(now_s() - t0);
    }
    per_layer(result, opt, untraced, traced, tracer, counts, load_s,
              parallel ? parallel_threads() : 1);
    const std::string trace_path = opt.out_dir + "/" + base + ".trace.json";
    std::ofstream(trace_path) << tracer.to_json() << '\n';
    result.notes.push_back("trace written to " + trace_path);
  }

  seeded_probe(opt, checks, kProbeOp);
  ++result.attempted;
  result.notes.push_back("probe circuit checked for seed " +
                         std::to_string(opt.seed));

  for (const auto& [op, whys] : checks.failures)
    for (const auto& w : whys)
      if (result.errors.size() < 40) result.errors.push_back(w);
  result.failed = static_cast<long long>(checks.failures.size());
  result.correct = result.failed == 0;
  return result;
}

std::string result_json(const Result& r) {
  obs::json::Writer w;
  w.begin_object();
  w.kv("correct", r.correct);
  w.kv("attempted", static_cast<std::int64_t>(r.attempted));
  w.kv("failed", static_cast<std::int64_t>(r.failed));
  w.key("metrics");
  w.begin_object();
  for (const auto& m : r.metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", std::string_view(m.unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace lacbench
