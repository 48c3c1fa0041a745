// Self-tests of the benchmark's own machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "core.h"
#include "workloads.h"

namespace lacbench {
namespace {

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  std::vector<double> xs;
  for (int i = 1; i <= 99; ++i) xs.push_back(i);
  EXPECT_FALSE(tail_percentile(xs, 0.9).has_value());  // only 9 beyond
  xs.push_back(100);
  const auto p90 = tail_percentile(xs, 0.9);
  ASSERT_TRUE(p90.has_value());  // rank 90, 10 beyond
  EXPECT_EQ(*p90, 90.0);
  EXPECT_FALSE(tail_percentile(xs, 0.95).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.9).has_value());
}

TEST(Percentile, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(*median({3, 1, 2}), 2.0);
  EXPECT_EQ(*median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

Fingerprint sample_fingerprint() {
  Fingerprint f;
  f.circuit = "y386";
  f.t_clk_ps = 1234.5678901234567;
  f.t_init_ps = 2345.25;
  f.ma_n_foa = 22;
  f.ma_n_f = 300;
  f.ma_n_fn = 40;
  f.lac_n_foa = 1;
  f.lac_n_f = 310;
  f.lac_n_fn = 45;
  f.lac_n_wr = 22;
  f.iter2_n_foa = 0;
  return f;
}

TEST(Fingerprint, LineRoundTrips) {
  const Fingerprint f = sample_fingerprint();
  const auto back = parse_line(to_line(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(diff(f, *back).empty());
  EXPECT_FALSE(parse_line("y1 t_clk_ps=1").has_value());
  EXPECT_FALSE(parse_line(to_line(f) + " bogus=3").has_value());
}

TEST(Fingerprint, ComparatorCatchesEverySingleField) {
  const Fingerprint f = sample_fingerprint();
  const std::vector<void (*)(Fingerprint&)> edits = {
      [](Fingerprint& g) { g.t_clk_ps = std::nextafter(g.t_clk_ps, 1e9); },
      [](Fingerprint& g) { g.t_init_ps += 0.5; },
      [](Fingerprint& g) { ++g.ma_n_foa; },
      [](Fingerprint& g) { ++g.ma_n_f; },
      [](Fingerprint& g) { ++g.ma_n_fn; },
      [](Fingerprint& g) { ++g.lac_n_foa; },
      [](Fingerprint& g) { ++g.lac_n_f; },
      [](Fingerprint& g) { ++g.lac_n_fn; },
      [](Fingerprint& g) { ++g.lac_n_wr; },
      [](Fingerprint& g) { g.iter2_n_foa = -1; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Fingerprint g = f;
    edits[i](g);
    EXPECT_EQ(diff(f, g).size(), 1u) << "edit " << i;
  }
}

TEST(Golden, CoversTheWholeSuite) {
  const auto golden = read_golden(golden_path());
  const auto suite = seeded_suite(kDefaultSeed);
  ASSERT_EQ(golden.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(golden[i].circuit, suite[i].spec.name);
}

std::vector<lac::netlist::Netlist> load(
    const std::vector<lac::bench89::SuiteEntry>& suite, std::size_t n) {
  std::vector<lac::netlist::Netlist> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(lac::bench89::load(suite[i]));
  return out;
}

bool same_netlist(const lac::netlist::Netlist& a, const lac::netlist::Netlist& b) {
  if (a.num_cells() != b.num_cells()) return false;
  for (const auto c : a.cells()) {
    if (a.type(c) != b.type(c) || a.cell_name(c) != b.cell_name(c)) return false;
    const auto fa = a.fanins(c);
    const auto fb = b.fanins(c);
    if (!std::equal(fa.begin(), fa.end(), fb.begin(), fb.end())) return false;
  }
  return true;
}

TEST(Seeds, DefaultSeedIsTheShippedSuite) {
  const auto shipped = lac::bench89::table1_suite();
  const auto seeded = seeded_suite(kDefaultSeed);
  ASSERT_EQ(shipped.size(), seeded.size());
  for (std::size_t i = 0; i < shipped.size(); ++i)
    EXPECT_EQ(shipped[i].spec.seed, seeded[i].spec.seed);
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs) {
  const auto a = seeded_suite(42), b = seeded_suite(42), c = seeded_suite(43);
  const auto shipped = lac::bench89::table1_suite();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.seed, b[i].spec.seed);
    EXPECT_NE(a[i].spec.seed, c[i].spec.seed);
    EXPECT_EQ(a[i].spec.num_gates, shipped[i].spec.num_gates);
    EXPECT_EQ(a[i].spec.num_dffs, shipped[i].spec.num_dffs);
  }
  const auto na = load(a, 2), nb = load(b, 2), nc = load(c, 2);
  EXPECT_TRUE(same_netlist(na[0], nb[0]));
  EXPECT_FALSE(same_netlist(na[0], nc[0]));

  const std::vector<int> blocks = {a[0].recommended_blocks, a[1].recommended_blocks};
  const auto ja = eco_journal(42, na, blocks, 50, 10);
  const auto jb = eco_journal(42, nb, blocks, 50, 10);
  const auto jc = eco_journal(43, nc, blocks, 50, 10);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja, jc);
  const auto jd = eco_journal(43, na, blocks, 50, 10);  // same circuits
  EXPECT_NE(ja, jd);
}

TEST(Journal, UsesEveryEditKindAndBuffersEachConnectionOnce) {
  const auto suite = seeded_suite(kDefaultSeed);
  const auto nets = load(suite, 2);
  const auto j = eco_journal(kDefaultSeed, nets,
                             {suite[0].recommended_blocks, suite[1].recommended_blocks},
                             200, 10);
  std::set<EcoStep::Kind> kinds;
  std::set<std::tuple<int, std::string, std::string>> buffered;
  for (const auto& s : j) {
    kinds.insert(s.kind);
    if (s.kind == EcoStep::Kind::kBuffer) {
      EXPECT_TRUE(buffered.emplace(s.circuit, s.driver, s.sink).second);
    }
  }
  EXPECT_EQ(kinds.size(), 5u);  // four edits + remove_cell undoes
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, WorkloadRunsAndPassesItsChecks) {
  for (const bool trace : {false, true}) {
    Options opt;
    opt.workload = GetParam();
    opt.smoke = true;
    opt.seconds = 0;
    opt.trace = trace;
    opt.out_dir = ::testing::TempDir() + "/lacbench_smoke";
    const Result r = run(opt);
    for (const auto& e : r.errors) ADD_FAILURE() << e;
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0);
    EXPECT_GT(r.attempted, 0);
    EXPECT_FALSE(r.metrics.empty());
    for (const auto& m : r.metrics) EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workload_names()));

}  // namespace
}  // namespace lacbench
