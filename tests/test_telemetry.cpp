// Tests for the unified telemetry layer (support/telemetry.*): span
// recording against the virtual clock, the metrics registry, the
// deterministic merge/export, and the enablement gates that keep
// instrumented code free when no tracer is installed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "comm/clock.hpp"
#include "la/flops.hpp"
#include "runner/harness.hpp"
#include "runner/registry.hpp"
#include "support/telemetry.hpp"

namespace nadmm {
namespace {

la::DeviceModel unit_device() { return {"unit", 1.0}; }  // 1 GF/s

TEST(Telemetry, DisabledByDefault) {
  EXPECT_FALSE(telem::active());
  EXPECT_EQ(telem::current(), nullptr);
  // All entry points must be safe no-ops without a tracer.
  {
    TELEM_SPAN("test", "noop");
    telem::instant("test", "noop");
    telem::count("noop");
    telem::gauge("noop", 1.0);
    telem::observe("noop", 1.0);
    telem::snapshot_metrics();
  }
  EXPECT_FALSE(telem::active());
}

TEST(Telemetry, SpanRecordsVirtualTimeAndDeltas) {
  telem::Tracer tracer("test");
  comm::SimClock clock(unit_device());
  clock.add_compute(1.5);  // spans start at sim t = 1.5
  {
    telem::TracerScope scope(tracer);
    telem::TrackScope track(0, &clock);
    EXPECT_TRUE(telem::active());
    TELEM_SPAN("kernel", "work");
    flops::add(2'000'000'000);  // 2 GF on a 1 GF/s device = 2 sim-seconds
  }
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 1u);
  const auto& e = events[0];
  EXPECT_EQ(e.kind, telem::EventKind::kSpan);
  EXPECT_STREQ(e.category, "kernel");
  EXPECT_STREQ(e.name, "work");
  EXPECT_EQ(e.track, 0);
  EXPECT_DOUBLE_EQ(e.sim_begin, 1.5);
  EXPECT_DOUBLE_EQ(e.sim_end, 3.5);  // projected, not folded in
  EXPECT_EQ(e.flops, 2'000'000'000u);
  EXPECT_GE(e.wall_end, e.wall_begin);
  // Observation must not have mutated the clock itself.
  EXPECT_DOUBLE_EQ(clock.total_seconds(), 1.5);
}

TEST(Telemetry, SpansNeedABoundTrackButCountersDoNot) {
  telem::Tracer tracer("test");
  telem::TracerScope scope(tracer);
  // No TrackScope: spans/instants have no rank clock to stamp, so they
  // drop; counters only need the tracer.
  {
    TELEM_SPAN("test", "untracked");
    telem::instant("test", "untracked");
    telem::count("seen", 3);
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.counters().at("seen"), 3u);
}

TEST(Telemetry, MergeIsSimTimeThenTrackThenSeq) {
  telem::Tracer tracer("test");
  comm::SimClock c0(unit_device());
  comm::SimClock c1(unit_device());
  telem::TracerScope scope(tracer);
  {
    // Track 1 records first in wall order, at sim t = 2.
    c1.add_compute(2.0);
    telem::TrackScope track(1, &c1);
    telem::instant("test", "late");
  }
  {
    telem::TrackScope track(0, &c0);
    telem::instant("test", "early");   // sim t = 0, seq 0
    telem::instant("test", "early2");  // sim t = 0, seq 1
  }
  const auto events = tracer.merged_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "early2");
  EXPECT_STREQ(events[2].name, "late");
}

TEST(Telemetry, ScopesRestoreThePreviousContext) {
  telem::Tracer outer("outer");
  telem::Tracer inner("inner");
  telem::TracerScope a(outer);
  EXPECT_EQ(telem::current(), &outer);
  {
    telem::TracerScope b(inner);
    EXPECT_EQ(telem::current(), &inner);
  }
  EXPECT_EQ(telem::current(), &outer);
}

TEST(Telemetry, MetricsRegistryAndSnapshot) {
  telem::Tracer tracer("test");
  comm::SimClock clock(unit_device());
  telem::TracerScope scope(tracer);
  telem::TrackScope track(0, &clock);
  telem::count("sends", 2);
  telem::count("sends");
  telem::gauge("rho", 0.25);
  telem::observe("staleness", 1.0);
  telem::observe("staleness", 3.0);
  clock.add_compute(1.0);
  telem::snapshot_metrics();

  EXPECT_EQ(tracer.counters().at("sends"), 3u);
  EXPECT_DOUBLE_EQ(tracer.gauges().at("rho"), 0.25);
  EXPECT_EQ(tracer.histograms().at("staleness").count(), 2u);

  // The snapshot lands one counter event per metric at sim t = 1.
  std::size_t counter_events = 0;
  for (const auto& e : tracer.merged_events()) {
    if (e.kind != telem::EventKind::kCounter) continue;
    ++counter_events;
    EXPECT_DOUBLE_EQ(e.sim_begin, 1.0);
  }
  EXPECT_EQ(counter_events, 2u);  // "sends" + "rho"
}

TEST(Telemetry, ChromeExportShapeAndStability) {
  telem::Tracer tracer("test");
  comm::SimClock clock(unit_device());
  {
    telem::TracerScope scope(tracer);
    telem::TrackScope track(0, &clock);
    {
      TELEM_SPAN("core", "outer");  // 0 → 2 sim-seconds
      {
        TELEM_SPAN("kernel", "inner");  // 0 → 1 sim-second
        flops::add(1'000'000'000);
      }
      flops::add(1'000'000'000);
      telem::instant("wire", "send");
    }
  }
  std::ostringstream a, b;
  tracer.write_chrome_trace(a);
  tracer.write_chrome_trace(b);
  const std::string json = a.str();
  EXPECT_EQ(json, b.str());  // export is a pure function of the events
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  // Wall time never leaks into the default export.
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
  // At equal ts the longer (outer) span must be emitted first so slice
  // nesting reconstructs; both spans start at sim t = 0 here.
  EXPECT_LT(json.find("\"name\": \"outer\""), json.find("\"name\": \"inner\""));
}

TEST(Telemetry, ChromeExportEscapesTheLabel) {
  // The label is free text (a run tag): quotes, backslashes and control
  // bytes must come out escaped, not dropped, so the export stays JSON.
  telem::Tracer tracer("say \"hi\"\\\nnext\x01");
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"label\": \"say \\\"hi\\\"\\\\\\nnext\\u0001\""),
            std::string::npos)
      << os.str();
}

TEST(Telemetry, AsciiTimelineListsTracksAndCategories) {
  telem::Tracer tracer("test");
  comm::SimClock clock(unit_device());
  {
    telem::TracerScope scope(tracer);
    telem::TrackScope track(2, &clock);
    TELEM_SPAN("kernel", "gemm");
    flops::add(1'000'000'000);
  }
  const std::string timeline = tracer.ascii_timeline(32);
  EXPECT_NE(timeline.find("rank 2"), std::string::npos);
  EXPECT_NE(timeline.find("kernel"), std::string::npos);
}

// ------------------------------------------- end-to-end via a solver

runner::ExperimentConfig tiny_config() {
  runner::ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 240;
  c.n_test = 60;
  c.e18_features = 8;
  c.workers = 3;
  c.network = "eth1";
  c.iterations = 4;
  c.lambda = 1e-3;
  c.omp_threads = 1;
  return c;
}

std::string traced_run(const std::string& solver,
                       const runner::ExperimentConfig& config,
                       std::size_t* event_count = nullptr) {
  telem::Tracer tracer("e2e");
  {
    telem::TracerScope scope(tracer);
    const auto tt = runner::make_data(config);
    auto cluster = runner::make_cluster(config);
    static_cast<void>(runner::SolverRegistry::instance().run(
        solver, cluster,
        runner::shard_for_solver(solver, tt.train, &tt.test, config), config));
  }
  if (event_count != nullptr) *event_count = tracer.event_count();
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  return os.str();
}

TEST(Telemetry, AsyncSolverTraceIsByteDeterministic) {
  auto config = tiny_config();
  config.fault = "drop:0.05";
  std::size_t events = 0;
  const std::string a = traced_run("async-admm", config, &events);
  const std::string b = traced_run("async-admm", config);
  EXPECT_EQ(a, b);
  EXPECT_GT(events, 0u);
  // The instrumentation passes all show up: solver spans, wire
  // instants, kernel spans, and the epoch metric snapshots.
  EXPECT_NE(a.find("local_step"), std::string::npos);
  EXPECT_NE(a.find("consensus_merge"), std::string::npos);
  EXPECT_NE(a.find("\"deliver\""), std::string::npos);
  EXPECT_NE(a.find("\"send\""), std::string::npos);
  EXPECT_NE(a.find("\"ph\": \"C\""), std::string::npos);
}

TEST(Telemetry, UntracedRunRecordsNothing) {
  // A tracer that is merely alive (not installed on the running thread)
  // must stay empty: enablement is per-thread, not per-process.
  telem::Tracer tracer("idle");
  const auto config = tiny_config();
  const auto tt = runner::make_data(config);
  auto cluster = runner::make_cluster(config);
  static_cast<void>(runner::SolverRegistry::instance().run(
      "async-admm", cluster,
      runner::shard_for_solver("async-admm", tt.train, &tt.test, config),
      config));
  EXPECT_EQ(tracer.event_count(), 0u);
}

}  // namespace
}  // namespace nadmm
