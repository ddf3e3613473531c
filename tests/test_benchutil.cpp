// Tests for the benchmark utilities (bench_util): the artifact envelope
// and its gates, the paired A/B ratio, the iteration-growth fit,
// work-coefficient calibration, and the standard mesh factories — these
// feed every figure-level reproduction, so they get their own
// correctness checks.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_util.hpp"
#include "cfd/euler.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace {

using namespace f3d;

obs::Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return obs::parse_json(ss.str());
}

TEST(BenchUtil, WriteJsonWrapsInBenchEnvelope) {
  auto payload = benchutil::Json::object();
  payload.set("points", 3).set("label", "demo");
  benchutil::Gates gates;
  gates.check("points", 3.0, ">=", 1.0);
  const std::string path = ::testing::TempDir() + "BENCH_envelope_check.json";
  benchutil::write_json(path, payload, gates);

  const auto parsed = read_json(path);
  const auto* meta = parsed.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("schema")->s, obs::kBenchSchema);
  EXPECT_EQ(meta->find("experiment")->s, "envelope_check");
  EXPECT_NE(meta->find("host_isa"), nullptr);
  const auto* series = parsed.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_DOUBLE_EQ(series->find("points")->number(), 3);
  ASSERT_NE(series->find("gates"), nullptr);
  EXPECT_EQ(series->find("gates")->dump(), gates.to_json().dump());

  // No artifact without gates.
  EXPECT_THROW(benchutil::write_json(path, payload, benchutil::Gates{}),
               f3d::Error);
}

bool passes(double value, const char* op, double threshold) {
  benchutil::Gates g;
  g.check("gate", value, op, threshold);
  return g.to_json().items.at(0).find("pass")->b;
}

TEST(BenchUtil, GatesEvaluateEveryOp) {
  EXPECT_TRUE(passes(1.0, ">=", 1.0));
  EXPECT_FALSE(passes(0.5, ">=", 1.0));
  EXPECT_TRUE(passes(2.0, ">", 1.0));
  EXPECT_FALSE(passes(1.0, ">", 1.0));
  EXPECT_TRUE(passes(1.0, "<=", 1.0));
  EXPECT_FALSE(passes(1.5, "<=", 1.0));
  EXPECT_TRUE(passes(0.5, "<", 1.0));
  EXPECT_FALSE(passes(1.0, "<", 1.0));
  EXPECT_TRUE(passes(0.0, "==", 0.0));
  EXPECT_FALSE(passes(1e-300, "==", 0.0));
  EXPECT_THROW(passes(1.0, "=>", 1.0), f3d::Error);

  benchutil::Gates g;
  g.check("yes", true);
  g.check("no", false);
  const auto arr = g.to_json();
  EXPECT_TRUE(arr.items.at(0).find("pass")->b);
  EXPECT_FALSE(arr.items.at(1).find("pass")->b);
}

TEST(BenchUtil, GatesExitStatusCountsOnlyRequiredFailures) {
  benchutil::Gates g;
  g.check("coverage", 0.94, ">=", 0.90);
  g.advisory("speedup", 1.2, ">=", 1.3, "host too narrow");
  g.advisory("improved", false, "defaults retained");
  EXPECT_EQ(g.exit_status(), 0);
  g.check("false_positives", 1.0, "==", 0.0);
  EXPECT_EQ(g.exit_status(), 1);

  // A failed advisory gate must say why; a passing one need not.
  benchutil::Gates a;
  EXPECT_NO_THROW(a.advisory("fast", 1.5, ">=", 1.3, ""));
  EXPECT_THROW(a.advisory("slow", 1.0, ">=", 1.3, ""), f3d::Error);
  EXPECT_THROW(a.check("fast", true), f3d::Error);  // names are unique
}

TEST(BenchUtil, GatesJsonShape) {
  benchutil::Gates g;
  g.check("overhead_frac", 0.05, "<=", 0.10);
  g.check("deterministic_rerun", true);
  g.advisory("speedup", 1.5, ">=", 1.3, "unused");
  g.advisory("improved", false, "defaults retained");
  const auto arr = obs::parse_json(g.to_json().dump());
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items.size(), 4u);
  auto keys = [](const obs::Json& o) {
    std::vector<std::string> k;
    for (const auto& [key, value] : o.members) k.push_back(key);
    return k;
  };
  using Keys = std::vector<std::string>;
  const Keys base = {"name", "value", "op", "threshold", "pass"};
  EXPECT_EQ(keys(arr.items[0]), base);
  EXPECT_EQ(arr.items[0].find("name")->s, "overhead_frac");
  EXPECT_DOUBLE_EQ(arr.items[0].find("value")->number(), 0.05);
  EXPECT_EQ(arr.items[0].find("op")->s, "<=");
  EXPECT_DOUBLE_EQ(arr.items[0].find("threshold")->number(), 0.10);
  EXPECT_TRUE(arr.items[0].find("pass")->b);

  EXPECT_EQ(keys(arr.items[1]), base);
  EXPECT_EQ(arr.items[1].find("value")->kind, obs::Json::Kind::kBool);
  EXPECT_EQ(arr.items[1].find("op")->s, "==");
  EXPECT_TRUE(arr.items[1].find("threshold")->b);

  // Advisory gates are marked; only a miss carries its note.
  Keys advisory = base;
  advisory.push_back("advisory");
  EXPECT_EQ(keys(arr.items[2]), advisory);
  advisory.push_back("note");
  EXPECT_EQ(keys(arr.items[3]), advisory);
  EXPECT_EQ(arr.items[3].find("note")->s, "defaults retained");
}

TEST(BenchUtil, PairedRatioAlternatesArmsAndTakesTheMedian) {
  std::string order;
  int on_calls = 0;
  const std::vector<double> on_times = {1.1, 1.3, 0.9, 1.2, 1.0,
                                        1.5, 0.8, 1.05, 0.95};
  const auto r = benchutil::paired_ratio(
      [&] {
        order += 'F';
        return 1.0;
      },
      [&] {
        order += 'N';
        return on_times[static_cast<std::size_t>(on_calls++)];
      });
  EXPECT_EQ(order, "FNNFFNNFFNNFFNNFFN");
  EXPECT_EQ(r.ratios, on_times);
  EXPECT_DOUBLE_EQ(r.median, 1.05);
}

TEST(BenchUtil, FitRecoversExactPowerLaw) {
  // its = 7 * P^0.25 exactly.
  std::vector<std::pair<int, double>> pts;
  for (int p : {8, 16, 32, 64, 128})
    pts.push_back({p, 7.0 * std::pow(p, 0.25)});
  EXPECT_NEAR(benchutil::fit_iteration_growth(pts), 0.25, 1e-12);
}

TEST(BenchUtil, FitHandlesFlatCounts) {
  std::vector<std::pair<int, double>> pts = {{8, 20}, {16, 20}, {32, 20}};
  EXPECT_NEAR(benchutil::fit_iteration_growth(pts), 0.0, 1e-12);
}

TEST(BenchUtil, MeshFactoriesContrastAsExpected) {
  auto shuffled = benchutil::make_shuffled_wing(3000);
  auto ordered = benchutil::make_ordered_wing(3000);
  EXPECT_EQ(shuffled.num_vertices(), ordered.num_vertices());
  EXPECT_LT(ordered.bandwidth(), shuffled.bandwidth() / 2);
}

TEST(BenchUtil, CalibratedWorkScalesWithFillAndPrecision) {
  auto m = benchutil::make_ordered_wing(2000);
  cfd::FlowConfig cfg;
  cfg.model = cfd::Model::kIncompressible;
  cfd::EulerDiscretization disc(m, cfg);
  auto w0 = benchutil::calibrate_work(disc, 0, false);
  auto w1 = benchutil::calibrate_work(disc, 1, false);
  auto w0f = benchutil::calibrate_work(disc, 0, true);
  EXPECT_GT(w0.flux_flops_per_edge, 10.0);
  EXPECT_GT(w1.sparse_bytes_per_vertex_it, w0.sparse_bytes_per_vertex_it);
  EXPECT_LT(w0f.sparse_bytes_per_vertex_it, w0.sparse_bytes_per_vertex_it);
  EXPECT_EQ(w0.nb, 4);
}

TEST(BenchUtil, ProbeNksReportsConsistentCounts) {
  auto m = benchutil::make_ordered_wing(1200);
  solver::SchwarzOptions so;
  so.type = solver::SchwarzType::kBlockJacobi;
  so.fill_level = 0;
  auto probe = benchutil::probe_nks(m, 4, so, 3);
  EXPECT_EQ(probe.subdomains, 4);
  EXPECT_EQ(probe.steps, 3);
  EXPECT_GT(probe.total_linear_its, 0);
  EXPECT_NEAR(probe.linear_its_per_step,
              static_cast<double>(probe.total_linear_its) / probe.steps,
              1e-9);
  EXPECT_GT(probe.wall_seconds, 0);
}

TEST(BenchUtil, SurfaceLawFromEachPartitioner) {
  auto m = benchutil::make_ordered_wing(3000);
  for (auto kind : {benchutil::Partitioner::kKway,
                    benchutil::Partitioner::kBalanceFirst,
                    benchutil::Partitioner::kMultilevel}) {
    auto law = benchutil::measure_surface_law(m, {4, 8, 16}, kind);
    EXPECT_GT(law.ghost_coeff, 0) << static_cast<int>(kind);
    EXPECT_GT(law.edges_per_vertex, 5.0);
  }
}

}  // namespace
