// Tests for f3d::obs — the span tracer, counter/gauge registry, and
// sinks. The thread-count sweeps (1/2/4 workers) pin the determinism
// contract: counter totals and span counts are identical regardless of
// how the work was chunked.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

// Global allocation counter for the disabled-mode zero-allocation check.
// The default operator new[] forwards here, so this covers both forms.
// The nothrow form (std::stable_sort's temporary buffer) is replaced too:
// the replaced delete frees whatever it gets, so every form it can
// receive must come from the same malloc, or a sanitizer build reports an
// alloc-dealloc mismatch. The deletes are noinline: inlined into a caller
// whose new GCC cannot see as ours, a free() trips -Wmismatched-new-delete.
namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n > 0 ? n : 1);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace f3d;

TEST(ObsSpan, NestingAndOrdering) {
  obs::Tracer tracer;
  obs::set_tracing(true);
  {
    obs::Span outer(tracer, "outer");
    { obs::Span inner(tracer, "inner"); }
    { obs::Span inner2(tracer, "inner2"); }
  }
  obs::set_tracing(false);

  auto ev = tracer.drain();
  ASSERT_EQ(ev.size(), 3u);
  // drain() sorts by (t0, tid, depth): the outer span starts first and at
  // equal timestamps the smaller depth wins, so "outer" leads.
  EXPECT_STREQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].depth, 0);
  EXPECT_STREQ(ev[1].name, "inner");
  EXPECT_EQ(ev[1].depth, 1);
  EXPECT_STREQ(ev[2].name, "inner2");
  EXPECT_EQ(ev[2].depth, 1);
  // Containment: children live inside the parent's [t0, t1).
  EXPECT_LE(ev[0].t0_ns, ev[1].t0_ns);
  EXPECT_LE(ev[1].t1_ns, ev[2].t0_ns);
  EXPECT_GE(ev[0].t1_ns, ev[2].t1_ns);
  // drain() clears the buffers.
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(ObsSpan, DisabledSpansRecordNothing) {
  obs::Tracer tracer;
  obs::set_tracing(false);
  {
    obs::Span s(tracer, "ghost");
  }
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(ObsSpan, DisabledSpansAllocateNothing) {
  obs::set_tracing(false);
  obs::Tracer tracer;
  const long long before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::Span s(tracer, "noop");
    F3D_OBS_SPAN("noop_macro");
  }
  const long long after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after);
}

TEST(ObsSpan, PerThreadMergeDeterminism) {
  const std::int64_t n = 256;
  for (int threads : {1, 2, 4}) {
    exec::ThreadScope scope(threads);
    obs::Tracer tracer;
    obs::set_tracing(true);
    exec::pool().parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) {
            obs::Span s(tracer, "item");
          }
        },
        /*grain=*/1);
    obs::set_tracing(false);
    auto ev = tracer.drain();
    ASSERT_EQ(ev.size(), static_cast<std::size_t>(n)) << threads << " threads";
    std::set<int> tids;
    for (const auto& e : ev) {
      EXPECT_STREQ(e.name, "item");
      EXPECT_LE(e.t0_ns, e.t1_ns);
      tids.insert(e.tid);
    }
    EXPECT_LE(static_cast<int>(tids.size()), threads);
  }
}

TEST(ObsSpan, MacroRecordsToGlobalTracer) {
  obs::Tracer::global().clear();
  obs::set_tracing(true);
  {
    F3D_OBS_SPAN("macro_span");
  }
  obs::set_tracing(false);
  auto ev = obs::Tracer::global().drain();
  bool found = false;
  for (const auto& e : ev)
    if (std::string(e.name) == "macro_span") found = true;
  EXPECT_TRUE(found);
}

TEST(ObsRegistry, CounterIdentityAcrossThreadCounts) {
  const std::int64_t n = 4096;
  for (int threads : {1, 2, 4}) {
    exec::ThreadScope scope(threads);
    obs::Registry reg;
    exec::pool().parallel_for(
        0, n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t k = lo; k < hi; ++k) reg.count("hits");
        },
        /*grain=*/1);
    EXPECT_EQ(reg.counter("hits"), n) << threads << " threads";
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("hits"), n);
  }
}

TEST(ObsRegistry, TimesGaugesAndClear) {
  obs::Registry reg;
  reg.count("hits", 2);
  reg.set_gauge("rate", 0.125);
  reg.set_gauge("rate", 0.5);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("rate"), 0.5);
  EXPECT_EQ(reg.counter("absent"), 0);
  reg.clear();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(ObsJson, ParseRoundTrip) {
  auto root = obs::Json::object();
  root.set("int", 42)
      .set("neg", -7)
      .set("dbl", 0.1)
      .set("str", "a \"quoted\"\nline")
      .set("flag", true)
      .set("nothing", obs::Json());
  auto arr = obs::Json::array();
  arr.push(1).push(2.5).push("three");
  root.set("arr", std::move(arr));

  const std::string text = root.dump();
  auto parsed = obs::parse_json(text);
  // %.17g doubles make dump -> parse -> dump a fixed point.
  EXPECT_EQ(parsed.dump(), text);
  ASSERT_NE(parsed.find("arr"), nullptr);
  EXPECT_EQ(parsed.find("arr")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.find("dbl")->number(), 0.1);
  EXPECT_EQ(parsed.find("str")->s, "a \"quoted\"\nline");
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::parse_json("{"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("nul"), std::runtime_error);
  EXPECT_THROW(obs::parse_json("{} junk"), std::runtime_error);
}

TEST(ObsTrace, ChromeTraceRoundTrip) {
  obs::Tracer tracer;
  obs::set_tracing(true);
  {
    obs::Span a(tracer, "alpha");
    { obs::Span b(tracer, "beta"); }
  }
  obs::set_tracing(false);
  auto ev = tracer.drain();
  ASSERT_EQ(ev.size(), 2u);

  obs::Registry reg;
  reg.count("k.iterations", 11);
  const auto snap = reg.snapshot();

  auto trace = obs::chrome_trace_json(ev, &snap);
  auto parsed = obs::parse_json(trace.dump());

  const auto* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  for (const auto& e : events->items) {
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    EXPECT_EQ(e.find("ph")->s, "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
  }
  const auto* meta = parsed.find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->find("schema"), nullptr);
  EXPECT_EQ(meta->find("schema")->s, obs::kTraceSchema);
  ASSERT_NE(meta->find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(meta->find("counters")->find("k.iterations")->number(), 11);
  EXPECT_EQ(meta->find("times"), nullptr);  // spans are the only clock
}

TEST(ObsTrace, BenchReportEnvelope) {
  auto series = obs::Json::object();
  series.set("value", 3.5);
  auto report = obs::make_bench_report("demo", std::move(series));
  EXPECT_EQ(report.find("meta")->find("schema")->s, obs::kBenchSchema);
  EXPECT_EQ(report.find("meta")->find("experiment")->s, "demo");
  EXPECT_DOUBLE_EQ(report.find("series")->find("value")->number(), 3.5);
}

}  // namespace
