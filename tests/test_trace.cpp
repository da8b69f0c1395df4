// The observability layer: span logs (thread binding, end order, per-lane
// isolation), Chrome trace output, the clock-offset merge and the metrics
// registry (histogram bucket edges, snapshot merge), plus an end-to-end
// cluster run asserting the coordinator merges causally ordered worker
// spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domain/cluster.hpp"
#include "domain/metrics.hpp"
#include "domain/simulation.hpp"
#include "util/timer.hpp"
#include "util/ic.hpp"
#include "util/trace.hpp"

namespace bonsai {
namespace {

namespace metrics = bonsai::metrics;
namespace trace = bonsai::trace;

// A thread without a bound log (a device-pool worker, a bench harness)
// records nothing, and a span opened there stays unrecorded even if a log is
// bound before it closes.
TEST(Tracer, DisabledScopesEmitNothing) {
  ASSERT_EQ(trace::bound_log(), nullptr);
  std::vector<trace::Span> log;
  {
    trace::ScopedSpan span("never.recorded", 0, 0, 1);
    span.set_bytes(128);
    EXPECT_EQ(span.close(), 0.0);
  }
  {
    trace::ScopedSpan early("opened.unbound");
    trace::BindLog bind(log);
    early.close();
  }
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(trace::bound_log(), nullptr);
}

TEST(Tracer, NestedScopesRecordInEndOrderAndNest) {
  std::vector<trace::Span> log, inner_log;
  {
    trace::BindLog bind(log);
    trace::ScopedSpan outer("outer", 1, 1, 3);
    {
      trace::ScopedSpan inner("inner", 1, 1, 3);
      inner.set_peer(0);
      inner.set_bytes(64);
    }
    {
      // Bindings nest: the inner one takes the spans opened under it and
      // gives the thread back to the outer log.
      trace::BindLog nested(inner_log);
      trace::ScopedSpan other("other.log");
    }
    trace::ScopedSpan closed("closed.early", 1);
    EXPECT_GE(closed.close(), 0.0);
  }
  ASSERT_EQ(inner_log.size(), 1u);
  EXPECT_EQ(inner_log[0].name, "other.log");
  ASSERT_EQ(log.size(), 3u);
  // Spans record when they end: inner first, the closed one next (its
  // destructor records nothing more), the outer last.
  EXPECT_EQ(log[0].name, "inner");
  EXPECT_EQ(log[1].name, "closed.early");
  EXPECT_EQ(log[2].name, "outer");
  EXPECT_GE(log[0].begin_ns, log[2].begin_ns);  // inner nests in outer
  EXPECT_LE(log[0].end_ns, log[2].end_ns);
  EXPECT_EQ(log[0].peer, 0);
  EXPECT_EQ(log[0].bytes, 64);
  EXPECT_EQ(log[2].peer, -2);  // untouched sentinel
  EXPECT_EQ(log[2].bytes, -1);
  EXPECT_EQ(log[2].rank, 1);
  EXPECT_EQ(log[2].step, 3);
  EXPECT_EQ(trace::bound_log(), nullptr);
}

TEST(Tracer, ConcurrentLanesKeepPerLaneOrderAndLoseNothing) {
  constexpr int kLanes = 8;
  constexpr int kPerLane = 500;
  std::vector<std::vector<trace::Span>> logs(kLanes);
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < kLanes; ++lane)
    lanes.emplace_back([lane, &logs] {
      trace::BindLog bind(logs[static_cast<std::size_t>(lane)]);
      for (int i = 0; i < kPerLane; ++i) {
        trace::ScopedSpan span("lane.unit", lane, lane, i);
        (void)span;
      }
    });
  for (std::thread& t : lanes) t.join();

  // Each lane's log holds exactly its own spans, all of them, in order.
  for (int lane = 0; lane < kLanes; ++lane) {
    const std::vector<trace::Span>& log = logs[static_cast<std::size_t>(lane)];
    ASSERT_EQ(log.size(), static_cast<std::size_t>(kPerLane));
    std::int64_t expect_step = 0;
    for (const trace::Span& s : log) {
      EXPECT_EQ(s.lane, lane);
      EXPECT_EQ(s.step, expect_step++);
      EXPECT_LE(s.begin_ns, s.end_ns);
    }
  }
}

trace::Span make_span(const char* name, std::int64_t begin_us, std::int64_t end_us,
                      std::int32_t rank = 0) {
  trace::Span s;
  s.name = name;
  s.begin_ns = begin_us * 1000;
  s.end_ns = end_us * 1000;
  s.rank = rank;
  return s;
}

// The row function on a synthetic rank log (times in microseconds).
TEST(Trace, StageRowsSubtractNestedWireSpansAndKeepWaits) {
  const std::vector<trace::Span> log = {
      // Domain update [0, 100) encloses a 10 us encode, a post and a wait
      // (which stay in the row) and a 5 us decode.
      make_span("wire.encode.domain", 10, 20),
      make_span("transport.post", 20, 22),
      make_span("wire.decode.domain", 60, 65),
      make_span("domain.update", 0, 100),
      // Exchange particles: the migration phase with its own wire spans, and
      // the box allgather with a wait inside.
      make_span("wire.encode.migration", 110, 114),
      make_span("migration.recv.wait", 114, 140),
      make_span("wire.decode.migration", 140, 143),
      make_span("decomposition.migrate", 100, 150),
      make_span("decomposition.boxes", 150, 170),
      make_span("rank.sort", 170, 180),
      make_span("rank.build", 180, 185),
      make_span("rank.properties", 185, 190),
      // Exchange LET is the extraction only; its encode follows, outside.
      make_span("let.export", 190, 200, 0),
      make_span("wire.encode.let", 200, 230),
      make_span("gravity.eval", 230, 300),
      make_span("gravity.local", 230, 300),
      // A wait between remote walks is in no row.
      make_span("let.recv.wait", 300, 320),
      make_span("wire.decode.let", 320, 330),
      make_span("gravity.remote", 330, 400),
      make_span("rank.integrate", 400, 402),
      make_span("rank.step", 0, 402),
      // Coordinator spans are no rank's rows, even with a row's name.
      make_span("wire.encode.step_begin", 0, 50, -1),
      make_span("gravity.remote", 0, 1000, -1),
  };
  const TimeBreakdown rows = domain::stage_rows(log);
  const auto us = [&](const char* row) { return rows.get(row) * 1e6; };
  EXPECT_NEAR(us("Domain update"), 100 - 10 - 5, 1e-9);
  EXPECT_NEAR(us("Exchange particles"), (50 - 4 - 3) + 20, 1e-9);
  EXPECT_NEAR(us("Sorting SFC"), 10, 1e-9);
  EXPECT_NEAR(us("Tree-construction"), 5, 1e-9);
  EXPECT_NEAR(us("Tree-properties"), 5, 1e-9);
  EXPECT_NEAR(us("Exchange LET"), 10, 1e-9);
  EXPECT_NEAR(us("Wire encode"), 10 + 4 + 30, 1e-9);
  EXPECT_NEAR(us("Wire decode"), 5 + 3 + 10, 1e-9);
  EXPECT_NEAR(us("Gravity local"), 70, 1e-9);
  EXPECT_NEAR(us("Gravity remote"), 70, 1e-9);
  EXPECT_NEAR(us("Integration"), 2, 1e-9);
  // Table II order, every row once.
  const std::vector<std::string> order = {
      "Domain update", "Exchange particles", "Sorting SFC",   "Tree-construction",
      "Tree-properties", "Exchange LET",     "Wire encode",   "Wire decode",
      "Gravity local", "Gravity remote",     "Integration"};
  ASSERT_EQ(rows.entries().size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(rows.entries()[i].name, order[i]);
  // The rows tile the rank's 402 us step except the wait between remote
  // walks, which no row encloses.
  EXPECT_NEAR(rows.total() * 1e6, 402 - 20, 1e-9);
}

TEST(Metrics, HistogramBucketBoundaries) {
  metrics::Registry reg;
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // counts[i] counts value <= bounds[i]; a value exactly on a bound lands in
  // that bucket, anything past the last bound overflows.
  reg.observe("h", bounds, 1.0);
  reg.observe("h", bounds, 1.5);
  reg.observe("h", bounds, 2.0);
  reg.observe("h", bounds, 4.0);
  reg.observe("h", bounds, 4.0001);
  reg.observe("h", bounds, 0.0);
  const metrics::Snapshot snap = reg.snapshot();
  const metrics::HistogramData& h = snap.histograms.at("h");
  ASSERT_EQ(h.bounds, bounds);
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 2u);  // 0.0, 1.0
  EXPECT_EQ(h.counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(h.counts[2], 1u);  // 4.0
  EXPECT_EQ(h.counts[3], 1u);  // 4.0001 overflow
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 1.0 + 1.5 + 2.0 + 4.0 + 4.0001 + 0.0);
}

TEST(Metrics, Pow2BoundsSpanTheRequestedExponents) {
  const std::vector<double> b = metrics::pow2_bounds(4, 7);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 16.0);
  EXPECT_EQ(b[1], 32.0);
  EXPECT_EQ(b[2], 64.0);
  EXPECT_EQ(b[3], 128.0);
}

TEST(Metrics, MergeSumsCountersAndHistogramsGaugesTakeLatest) {
  metrics::Snapshot a, b;
  a.counters["c"] = 2.0;
  a.counters["only_a"] = 1.0;
  a.gauges["g"] = 10.0;
  a.histograms["h"] = {{1.0, 2.0}, {1, 0, 1}, 2, 3.0};
  b.counters["c"] = 3.0;
  b.gauges["g"] = 20.0;
  b.gauges["only_b"] = 5.0;
  b.histograms["h"] = {{1.0, 2.0}, {0, 2, 0}, 2, 3.5};
  metrics::merge(a, b);
  EXPECT_EQ(a.counters.at("c"), 5.0);
  EXPECT_EQ(a.counters.at("only_a"), 1.0);
  EXPECT_EQ(a.gauges.at("g"), 20.0);  // from wins
  EXPECT_EQ(a.gauges.at("only_b"), 5.0);
  const metrics::HistogramData& h = a.histograms.at("h");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 6.5);

  metrics::Snapshot bad;
  bad.histograms["h"] = {{1.0, 3.0}, {0, 0, 0}, 0, 0.0};
  EXPECT_THROW(metrics::merge(a, bad), std::runtime_error);
}

TEST(Trace, ChromeJsonIsWellFormedAndEscaped) {
  std::vector<trace::Span> spans(2);
  spans[0].name = "weird\"name\\with\nnewline";
  spans[0].begin_ns = 1500;       // 1.500 us
  spans[0].end_ns = 4750;         // dur 3.250 us
  spans[0].rank = -1;             // coordinator -> pid 0
  spans[0].lane = -1;             // driver thread -> tid 0
  spans[1].name = "gravity.remote";
  spans[1].begin_ns = 2000;
  spans[1].end_ns = 3000;
  spans[1].rank = 2;
  spans[1].lane = 2;
  spans[1].step = 4;
  spans[1].peer = -1;             // a real peer: the coordinator
  spans[1].bytes = 4096;

  std::ostringstream os;
  trace::write_chrome_trace(os, spans, {{-1, "coordinator"}, {2, "rank 2"}});
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\\\"name\\\\with\\n"), std::string::npos);   // escaping
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);          // metadata
  EXPECT_NE(json.find("\"ts\":1.500,\"dur\":3.250,\"pid\":0,\"tid\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":3,\"tid\":2"), std::string::npos);   // rank 2
  EXPECT_NE(json.find("\"step\":4,\"peer\":-1,\"bytes\":4096"), std::string::npos);
  // Balanced braces/brackets (no raw quotes leak from the weird name).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, ClockOffsetMergeRestoresCausalOrder) {
  // Two fake workers whose steady clocks are wildly skewed against the
  // coordinator's: A runs 5 s ahead, B 3 s behind. True (coordinator-clock)
  // timeline: StepBegin posted at 1 ms; A exports a LET over [2 ms, 3 ms];
  // B's matching remote-gravity runs [3.5 ms, 4.5 ms]; both send their trace
  // frames at 5 ms, arriving 10 us later. Raw local timestamps order the two
  // spans backwards; the NTP-style shift must restore causality exactly
  // (symmetric delays).
  constexpr std::int64_t kSkewA = 5'000'000'000;
  constexpr std::int64_t kSkewB = -3'000'000'000;
  constexpr std::int64_t kFlight = 10'000;

  auto sync_for = [](std::int64_t skew) {
    trace::ClockSync s;
    s.coord_post_ns = 1'000'000;
    s.worker_recv_ns = 1'000'000 + kFlight + skew;
    s.worker_send_ns = 5'000'000 + skew;
    s.coord_arrive_ns = 5'000'000 + kFlight;
    return s;
  };
  const std::int64_t off_a = trace::estimate_clock_offset(sync_for(kSkewA));
  const std::int64_t off_b = trace::estimate_clock_offset(sync_for(kSkewB));
  EXPECT_EQ(off_a, -kSkewA);
  EXPECT_EQ(off_b, -kSkewB);

  std::vector<trace::Span> a_spans(1), b_spans(1);
  a_spans[0].name = "let.export";
  a_spans[0].begin_ns = 2'000'000 + kSkewA;
  a_spans[0].end_ns = 3'000'000 + kSkewA;
  a_spans[0].rank = 0;
  a_spans[0].peer = 1;
  b_spans[0].name = "gravity.remote";
  b_spans[0].begin_ns = 3'500'000 + kSkewB;
  b_spans[0].end_ns = 4'500'000 + kSkewB;
  b_spans[0].rank = 1;
  b_spans[0].peer = 0;

  // Unshifted, the import appears to *precede* the export by seconds.
  ASSERT_LT(b_spans[0].end_ns, a_spans[0].begin_ns);

  trace::shift_spans(a_spans, off_a);
  trace::shift_spans(b_spans, off_b);
  EXPECT_EQ(a_spans[0].begin_ns, 2'000'000);
  EXPECT_EQ(a_spans[0].end_ns, 3'000'000);
  EXPECT_EQ(b_spans[0].begin_ns, 3'500'000);
  // The merged timeline is causal again: the LET left A before B consumed it.
  EXPECT_LT(a_spans[0].end_ns, b_spans[0].begin_ns);
}

// End-to-end: a 2-rank SPMD mesh cluster with in-process workers (the
// on_listen seam) traces a step; the coordinator's merged report must carry
// remote-gravity spans from every rank, causally ordered against the peer's
// LET export even after the per-worker clock shifts.
TEST(ClusterTrace, MergedSpansCoverEveryRankAndStayCausal) {
  struct WorkerPool {
    std::vector<std::thread> threads;
    ~WorkerPool() {
      for (std::thread& t : threads)
        if (t.joinable()) t.join();
    }
  };
  WorkerPool pool;

  domain::SimConfig sim;
  sim.nranks = 2;
  sim.theta = 0.4;
  sim.eps = 1e-3;
  sim.dt = 0.0;
  // The causality margin checked below is the peer's LET export plus this
  // rank's remote walk; it must exceed the clock-offset error, which grows
  // with host load. The scalar kernel keeps the walk long enough for that
  // whatever the host's drain ISA.
  sim.kernel = KernelBackend::kScalar;

  domain::ClusterConfig cfg;
  cfg.sim = sim;
  cfg.spawn_workers = false;
  cfg.on_listen = [&pool](std::uint16_t port) {
    for (int r = 0; r < 2; ++r)
      pool.threads.emplace_back([port, r] {
        try {
          domain::run_worker("127.0.0.1", port, r, /*threads=*/1, /*listen_port=*/0);
        } catch (...) {
          // Teardown races surface as socket errors inside the worker.
        }
      });
  };

  domain::StepReport rep;
  {
    domain::ClusterSimulation cluster(cfg);
    cluster.init(make_plummer(1024, 17));
    rep = cluster.step();
  }

  ASSERT_FALSE(rep.spans.empty());
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    const auto remote = std::find_if(
        rep.spans.begin(), rep.spans.end(), [&](const trace::Span& s) {
          return s.name == "gravity.remote" && s.rank == r && s.peer == peer;
        });
    ASSERT_NE(remote, rep.spans.end()) << "no remote-gravity span on rank " << r;
    // The peer's matching LET export must have begun before this import
    // finished decoding + walking (it produced the frame being consumed).
    const auto exported = std::find_if(
        rep.spans.begin(), rep.spans.end(), [&](const trace::Span& s) {
          return s.name == "let.export" && s.rank == peer && s.peer == r;
        });
    ASSERT_NE(exported, rep.spans.end()) << "no LET export span on rank " << peer;
    EXPECT_LT(exported->begin_ns, remote->end_ns);
    // And both workers' step envelopes made it into the merge.
    EXPECT_NE(std::find_if(rep.spans.begin(), rep.spans.end(),
                           [&](const trace::Span& s) {
                             return s.name == "rank.step" && s.rank == r;
                           }),
              rep.spans.end());
  }
  // The coordinator's own driver spans are on the merged timeline too.
  EXPECT_NE(std::find_if(rep.spans.begin(), rep.spans.end(),
                         [](const trace::Span& s) { return s.rank == -1; }),
            rep.spans.end());
  // Metrics mirror the legacy aggregates exactly.
  ASSERT_FALSE(rep.metrics.counters.empty());
  double posted = 0.0;
  for (const auto& [name, value] : rep.metrics.counters)
    if (name.rfind("transport.post.bytes{", 0) == 0) posted += value;
  double legacy = 0.0;
  for (const auto& t : rep.traffic) legacy += static_cast<double>(t.bytes);
  EXPECT_DOUBLE_EQ(posted, legacy);
}

}  // namespace
}  // namespace bonsai
