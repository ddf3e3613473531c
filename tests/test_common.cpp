// Unit tests for the common utilities: error macros, timers, RNG, options
// parser, and table formatting. The dense block kernels' tests are in
// test_kernels.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace {

// Keep a value alive without volatile (avoids -Wvolatile).
inline void benchmark_do_not_optimize(double& v) {
  asm volatile("" : "+m"(v) : : "memory");
}

TEST(Error, CheckThrowsWithLocation) {
  try {
    F3D_CHECK_MSG(1 == 2, "context");
    FAIL() << "should have thrown";
  } catch (const f3d::Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) { F3D_CHECK(2 + 2 == 4); }

TEST(Timer, MeasuresElapsedTime) {
  f3d::Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  benchmark_do_not_optimize(sink);
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Rng, DeterministicForSeed) {
  f3d::Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInRange) {
  f3d::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BelowCoversRange) {
  f3d::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);  // all residues hit with high probability
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, ShuffleIsPermutation) {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  f3d::Rng rng(5);
  f3d::shuffle(v, rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_NE(v[0] * 100 + v[1], 0 * 100 + 1);  // overwhelmingly likely moved
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "-n", "42", "-tol", "1.5e-3", "-verbose",
                        "-name", "rcm", "file.txt"};
  f3d::Options o(9, argv);
  EXPECT_EQ(o.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(o.get_double("tol", 0), 1.5e-3);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_EQ(o.get_string("name", ""), "rcm");
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "file.txt");
}

TEST(Options, NegativeNumbersAreValues) {
  const char* argv[] = {"prog", "-alpha", "-0.5", "-k", "-3"};
  f3d::Options o(5, argv);
  EXPECT_DOUBLE_EQ(o.get_double("alpha", 0), -0.5);
  EXPECT_EQ(o.get_int("k", 0), -3);
}

TEST(Options, FallbacksWhenMissing) {
  f3d::Options o;
  EXPECT_EQ(o.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("y", 2.5), 2.5);
  EXPECT_EQ(o.get_string("z", "d"), "d");
  EXPECT_FALSE(o.get_bool("w", false));
  EXPECT_FALSE(o.has("x"));
}

TEST(Options, ProgrammaticSet) {
  f3d::Options o;
  o.set("np", "16");
  EXPECT_EQ(o.get_int("np", 0), 16);
}

TEST(Table, FormatsAlignedColumns) {
  f3d::Table t({"Name", "Time"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "10.25"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("Name"), std::string::npos);
  EXPECT_NE(s.find("10.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  f3d::Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), f3d::Error);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(f3d::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(f3d::Table::num(static_cast<long long>(42)), "42");
}

}  // namespace
