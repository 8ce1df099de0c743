#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "observability/instrumentation.hpp"
#include "observability/metrics.hpp"
#include "observability/report.hpp"
#include "observability/trace.hpp"

namespace paratreet {
namespace {

// --- metrics: aggregation across concurrent workers -------------------------

TEST(Metrics, CounterAggregatesConcurrentIncrements) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.ops");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, GaugeAggregatesConcurrentDeltas) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("test.level");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) g.add(0.5);
      for (int i = 0; i < kAdds / 2; ++i) g.sub(1.0);
    });
  }
  for (auto& t : threads) t.join();
  // Each thread nets kAdds*0.5 - kAdds/2 = 0; plus one final set.
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(42.5);
  EXPECT_DOUBLE_EQ(g.value(), 42.5);
}

TEST(Metrics, HistogramAggregatesConcurrentObservations) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.latency", {1.0, 10.0, 100.0});
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) {
        h.observe(0.5);    // bucket le=1
        h.observe(5.0);    // bucket le=10
        h.observe(50.0);   // bucket le=100
        h.observe(500.0);  // overflow bucket
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * 4000u);
  ASSERT_EQ(snap.counts.size(), 4u);
  for (const auto count : snap.counts) EXPECT_EQ(count, kThreads * 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
  EXPECT_NEAR(snap.sum, kThreads * 1000 * 555.5, 1e-6);
}

TEST(Metrics, RegistryReturnsSameInstrumentForSameName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same");
  obs::Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.findCounter("same"), &a);
  EXPECT_EQ(reg.findCounter("absent"), nullptr);
  // Histogram bounds of the first registration win.
  obs::Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("h", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(Metrics, ResetAllZeroesEverything) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").add(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.resetAll();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h", {1.0}).snapshot().count, 0u);
}

// --- tracing ----------------------------------------------------------------

TEST(Trace, SpanNestingRecordsContainedIntervals) {
  obs::TraceBuffer buf(64);
  {
    obs::TraceSpan outer(&buf, "outer", "test", 0, 0);
    {
      obs::TraceSpan inner(&buf, "inner", "test", 0, 0);
    }
  }
  const auto events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record on scope exit: inner first, outer second.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_GE(outer.start_us + outer.duration_us,
            inner.start_us + inner.duration_us);
}

TEST(Trace, BufferDropsWhenFullWithoutBlocking) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span(&buf, "s", "test");
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  buf.reset();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(Trace, NullBufferSpanIsNoOp) {
  obs::TraceSpan span(nullptr, "ghost", "test");  // must not crash
}

TEST(Trace, ConcurrentRecordingLosesNothingUnderCapacity) {
  obs::TraceBuffer buf(1 << 14);
  constexpr int kThreads = 8;
  constexpr int kSpans = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buf, t] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan span(&buf, "work", "test", t, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buf.size(), static_cast<std::size_t>(kThreads) * kSpans);
  EXPECT_EQ(buf.dropped(), 0u);
}

// --- JSON export ------------------------------------------------------------

/// Minimal structural JSON check: quotes balance, braces/brackets nest.
bool structurallyValidJson(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Report, JsonExportRoundTrip) {
  Observability ob;
  ob.metrics.counter("cache.hits").add(12);
  ob.metrics.gauge("phase.build_seconds").add(0.25);
  ob.metrics.histogram("rts.queue_depth", {1.0, 2.0}).observe(1.5);
  ob.profiler.record(rts::Activity::kTreeBuild, 0.5);
  {
    obs::TraceSpan span(&ob.trace, "traverse.top_down", "traversal", 1, 2);
  }

  obs::Reporter reporter(ob.handle());
  const std::string json = reporter.toJson();
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"paratreet.observability.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cache.hits\":12"), std::string::npos);
  EXPECT_NE(json.find("phase.build_seconds"), std::string::npos);
  EXPECT_NE(json.find("rts.queue_depth"), std::string::npos);
  EXPECT_NE(json.find("\"tree build\""), std::string::npos);
  EXPECT_NE(json.find("\"traverse.top_down\""), std::string::npos);

  // File round-trip: what writeJson() puts on disk is toJson() verbatim.
  const std::string path = ::testing::TempDir() + "obs_report.json";
  reporter.writeJson(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), json + "\n");
  std::remove(path.c_str());

  const std::string chrome = reporter.toChromeTrace();
  EXPECT_TRUE(structurallyValidJson(chrome)) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(chrome.find("\"tid\":2"), std::string::npos);
}

TEST(Report, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  obs::MetricsRegistry reg;
  reg.counter("weird\"name").add(1);
  Instrumentation instr;
  instr.metrics = &reg;
  const std::string json = obs::Reporter(instr).toJson();
  EXPECT_TRUE(structurallyValidJson(json)) << json;
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

// --- enum parsing -----------------------------------------------------------

TEST(Config, FromStringRoundTripsEveryEnum) {
  for (TreeType t : {TreeType::eOct, TreeType::eKd, TreeType::eLongest}) {
    TreeType out;
    EXPECT_TRUE(fromString(toString(t), out));
    EXPECT_EQ(out, t);
  }
  for (CacheModel m :
       {CacheModel::kWaitFree, CacheModel::kXWrite, CacheModel::kPerThread,
        CacheModel::kSingleInserter}) {
    CacheModel out;
    EXPECT_TRUE(fromString(toString(m), out));
    EXPECT_EQ(out, m);
  }
  for (LbScheme s : {LbScheme::kNone, LbScheme::kSfc, LbScheme::kGreedy}) {
    LbScheme out;
    EXPECT_TRUE(fromString(toString(s), out));
    EXPECT_EQ(out, s);
  }
  for (DecompType d : {DecompType::eSfc, DecompType::eOct, DecompType::eKd,
                       DecompType::eLongest}) {
    DecompType out;
    EXPECT_TRUE(fromString(toString(d), out));
    EXPECT_EQ(out, d);
  }
  TreeType t;
  EXPECT_FALSE(fromString("quadtree", t));
  CacheModel m;
  EXPECT_FALSE(fromString("waitfree", m));  // case-sensitive
  LbScheme s;
  EXPECT_FALSE(fromString("", s));
  DecompType d;
  EXPECT_FALSE(fromString("hilbert", d));
}

// --- Configuration::validate ------------------------------------------------

TEST(Config, ValidateAcceptsDefaults) {
  Configuration conf;
  EXPECT_EQ(conf.validate(), "");
}

TEST(Config, ValidateRejectsNonsensicalValues) {
  const auto expectRejects = [](auto mutate, const char* field) {
    Configuration conf;
    mutate(conf);
    const std::string err = conf.validate();
    EXPECT_FALSE(err.empty()) << field;
    EXPECT_NE(err.find(field), std::string::npos) << err;
  };
  expectRejects([](Configuration& c) { c.bucket_size = 0; }, "bucket_size");
  expectRejects([](Configuration& c) { c.bucket_size = -4; }, "bucket_size");
  expectRejects([](Configuration& c) { c.fetch_depth = 0; }, "fetch_depth");
  expectRejects([](Configuration& c) { c.lb_period = -1; }, "lb_period");
  expectRejects([](Configuration& c) { c.num_iterations = -1; },
                "num_iterations");
  expectRejects([](Configuration& c) { c.min_partitions = 0; },
                "min_partitions");
  expectRejects([](Configuration& c) { c.min_subtrees = 0; }, "min_subtrees");
  expectRejects([](Configuration& c) { c.share_levels = -2; }, "share_levels");
}

// --- end-to-end through Driver/Forest ---------------------------------------

struct CountData {
  double mass = 0.0;
  CountData() = default;
  CountData(const Particle* ps, int n) {
    for (int i = 0; i < n; ++i) mass += ps[i].mass;
  }
  CountData& operator+=(const CountData& o) {
    mass += o.mass;
    return *this;
  }
};

/// Opens everything down to the leaves so remote fetches must happen.
struct SumVisitor {
  bool open(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {
    return true;
  }
  void node(const SpatialNode<CountData>&, SpatialNode<CountData>&) const {}
  void leaf(const SpatialNode<CountData>& src,
            SpatialNode<CountData>& tgt) const {
    for (int i = 0; i < tgt.n_particles; ++i) {
      tgt.particle(i).density += src.data.mass;
    }
  }
};

class SumMain : public Driver<CountData, OctTreeType> {
 public:
  int bucket_size = 8;
  void configure(Configuration& conf) override {
    conf.num_iterations = 2;
    conf.min_partitions = 4;
    conf.min_subtrees = 4;
    conf.bucket_size = bucket_size;
  }
  void traversal(int) override { startDown<SumVisitor>(); }
};

TEST(Observability, DriverEmitsMetricsSpansAndActivities) {
  rts::Runtime rt({2, 2});
  Observability ob;
  SumMain app;
  app.run(rt, makeParticles(uniformCube(400, 17)), ob.handle());

  // Cache counters flowed into the registry (2 procs => remote fetches).
  const obs::Counter* misses = ob.metrics.findCounter("cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value(), 0u);
  ASSERT_NE(ob.metrics.findCounter("cache.fills"), nullptr);
  EXPECT_GT(ob.metrics.findCounter("cache.fills")->value(), 0u);
  // Registry counters accumulate across iterations; the forest's Stats
  // reset at each tree build, so cumulative >= last-iteration snapshot.
  EXPECT_GE(ob.metrics.findCounter("cache.fills")->value(),
            app.forest().cacheStatsTotal().fills);
  EXPECT_GE(misses->value(), app.forest().cacheStatsTotal().requests_sent);

  // Runtime scheduler metrics.
  EXPECT_GT(ob.metrics.counter("rts.tasks_executed").value(), 0u);
  EXPECT_GT(ob.metrics.counter("rts.messages").value(), 0u);
  EXPECT_GT(ob.metrics.counter("rts.worker.p0.w0.busy_ns").value(), 0u);
  EXPECT_GT(ob.metrics.histogram("rts.queue_depth", {1.0}).snapshot().count,
            0u);

  // Phase gauges accumulated across both iterations.
  ASSERT_NE(ob.metrics.findGauge("phase.build_seconds"), nullptr);
  EXPECT_GT(ob.metrics.findGauge("phase.build_seconds")->value(), 0.0);
  EXPECT_GT(ob.metrics.findGauge("phase.traverse_seconds")->value(), 0.0);
  EXPECT_GT(ob.metrics.findGauge("phase.decompose_seconds")->value(), 0.0);

  // At least one span per traversal, plus per-iteration driver spans.
  std::size_t traversal_spans = 0, iteration_spans = 0;
  for (const auto& ev : ob.trace.snapshot()) {
    if (std::string_view(ev.category) == "traversal") ++traversal_spans;
    if (std::string_view(ev.name) == "iteration") ++iteration_spans;
  }
  EXPECT_GE(traversal_spans, 2u);  // one per iteration
  EXPECT_EQ(iteration_spans, 2u);

  // Activity profiler still fed through the same handle.
  EXPECT_GT(ob.profiler.seconds(rts::Activity::kTreeBuild), 0.0);

  // And the whole thing serializes.
  const std::string json = obs::Reporter(ob.handle()).toJson();
  EXPECT_TRUE(structurallyValidJson(json));
  EXPECT_NE(json.find("cache.misses"), std::string::npos);
  EXPECT_NE(json.find("phase.traverse_seconds"), std::string::npos);
}

// Each library interval is stamped once: the PhaseTimes slot, the
// phase.*_seconds gauge and the span all carry one clock reading.
TEST(Observability, ForestPhasesAreStampedOnce) {
  rts::Runtime rt({2, 2});
  Observability ob;
  Configuration conf;
  conf.min_partitions = 4;
  conf.min_subtrees = 4;
  conf.bucket_size = 8;
  Forest<CountData, OctTreeType> forest(rt, conf, ob.handle());
  forest.load(makeParticles(uniformCube(400, 17)));
  forest.decompose();
  forest.build();
  forest.traverse(SumVisitor{});

  const PhaseTimes& t = forest.phaseTimes();
  struct Phase {
    double seconds;
    const char* gauge;
    const char* span;
  };
  const auto events = ob.trace.snapshot();
  for (const Phase& p : {Phase{t.decompose, "phase.decompose_seconds",
                               "decompose"},
                         Phase{t.build, "phase.build_seconds", "build"},
                         Phase{t.traverse, "phase.traverse_seconds",
                               "traverse.top_down"}}) {
    SCOPED_TRACE(p.span);
    EXPECT_GT(p.seconds, 0.0);
    const obs::Gauge* gauge = ob.metrics.findGauge(p.gauge);
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), p.seconds);
    int spans = 0;
    for (const auto& ev : events) {
      if (std::string_view(ev.name) != p.span) continue;
      ++spans;
      EXPECT_NEAR(static_cast<double>(ev.duration_us), p.seconds * 1e6, 1.0);
    }
    EXPECT_EQ(spans, 1);
  }

  // The Fig 9 profile is fed from the same scopes.
  EXPECT_GT(ob.profiler.seconds(rts::Activity::kTreeBuild), 0.0);
  EXPECT_GT(ob.profiler.seconds(rts::Activity::kLocalTraversal), 0.0);
  EXPECT_GT(ob.profiler.count(rts::Activity::kCacheRequest), 0u);
  EXPECT_GT(ob.profiler.count(rts::Activity::kCacheInsertion), 0u);
  EXPECT_GT(ob.profiler.count(rts::Activity::kRemoteTraversal), 0u);
}

class ThrowingMain : public SumMain {
 public:
  void traversal(int) override { throw std::runtime_error("traversal"); }
};

// Driver::run detaches the caller's sinks on every exit, thrown ones too:
// the caller's TraceBuffer may be gone by the time the runtime next runs.
TEST(Observability, DriverDetachesSinksWhenTraversalThrows) {
  rts::Runtime rt({2, 1});
  Observability ob;
  ThrowingMain app;
  EXPECT_THROW(app.run(rt, makeParticles(uniformCube(200, 5)), ob.handle()),
               std::runtime_error);
  EXPECT_EQ(rt.traceBuffer(), nullptr);
}

TEST(Observability, DriverRejectsInvalidConfiguration) {
  rts::Runtime rt({1, 1});
  SumMain app;
  app.bucket_size = 0;
  EXPECT_THROW(app.run(rt, makeParticles(uniformCube(50, 3)), Instrumentation{}),
               std::invalid_argument);
}

// A profiler-only Instrumentation (no registry, no trace) is the
// migration target of the removed ActivityProfiler* overloads.
TEST(Observability, ProfilerOnlyInstrumentationWorks) {
  rts::Runtime rt({2, 1});
  rts::ActivityProfiler profiler;
  SumMain app;
  app.run(rt, makeParticles(uniformCube(200, 5)),
          Instrumentation{&profiler, nullptr, nullptr});
  EXPECT_GT(profiler.seconds(rts::Activity::kTreeBuild), 0.0);
}

}  // namespace
}  // namespace paratreet
