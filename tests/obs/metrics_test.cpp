// Metrics registry: handle identity, counter/gauge/histogram semantics,
// cross-thread aggregation under parallel_for contention, and the
// snapshot / JSON round trip that tools/obs_report relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace hsconas::obs {
namespace {

TEST(Metrics, CounterHandleIsStableAndAggregates) {
  Counter& a = counter("test.metrics.counter_a");
  Counter& b = counter("test.metrics.counter_a");
  EXPECT_EQ(&a, &b);  // same name -> same cell

  a.reset();
  a.add();
  b.add(4);
  EXPECT_EQ(a.value(), 5u);
  a.reset();
  EXPECT_EQ(a.value(), 0u);
}

TEST(Metrics, GaugeSetAddMax) {
  Gauge& g = gauge("test.metrics.gauge");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.update_max(0.5);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(Metrics, HistogramBucketsAndStats) {
  Histogram& h = histogram("test.metrics.hist");
  h.reset();
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(h.max_ms(), 0.0);

  h.record(0.0005);  // below the first edge (0.001 ms = 1 µs)
  h.record(0.5);
  h.record(100.0);
  h.record(5000.0);  // beyond the last edge -> overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min_ms(), 0.0005);
  EXPECT_DOUBLE_EQ(h.max_ms(), 5000.0);
  EXPECT_NEAR(h.sum_ms(), 5100.5005, 1e-9);

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    total += h.bucket(i);
  }
  EXPECT_EQ(total, 4u);  // every sample lands in exactly one bucket
  EXPECT_EQ(h.bucket(Histogram::kNumBuckets - 1), 1u);  // the 5 s sample

  // Edges are strictly increasing (sane bucket boundaries).
  const auto& edges = Histogram::edges();
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(Metrics, CounterAggregatesAcrossParallelForWorkers) {
  Counter& c = counter("test.metrics.contended");
  Histogram& h = histogram("test.metrics.contended_hist");
  c.reset();
  h.reset();

  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  pool.parallel_for(kTasks, [&](std::size_t i) {
    c.add();
    h.record(static_cast<double>(i % 10) * 0.1);
  });

  EXPECT_EQ(c.value(), kTasks);  // no lost updates under contention
  EXPECT_EQ(h.count(), kTasks);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    total += h.bucket(i);
  }
  EXPECT_EQ(total, kTasks);
}

TEST(Metrics, SnapshotContainsRegisteredMetricsSorted) {
  counter("test.snapshot.a").add(7);
  gauge("test.snapshot.g").set(3.25);
  histogram("test.snapshot.h").record(1.0);

  const MetricsSnapshot snap = metrics_snapshot();
  EXPECT_EQ(snap.counter_value("test.snapshot.a"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.snapshot.g"), 3.25);
  EXPECT_EQ(snap.counter_value("test.snapshot.missing"), 0u);

  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }

  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "test.snapshot.h") {
      found_hist = true;
      EXPECT_GE(h.count, 1u);
      EXPECT_GT(h.percentile_ms(0.5), 0.0);
    }
  }
  EXPECT_TRUE(found_hist);

  reset_all_metrics();
  EXPECT_EQ(metrics_snapshot().counter_value("test.snapshot.a"), 0u);
}

TEST(Metrics, JsonRoundTripPreservesSnapshot) {
  reset_all_metrics();
  counter("test.roundtrip.calls").add(42);
  gauge("test.roundtrip.peak").set(1.5e6);
  Histogram& h = histogram("test.roundtrip.lat");
  h.record(0.2);
  h.record(3.0);

  const MetricsSnapshot before = metrics_snapshot();
  const util::Json doc = metrics_to_json(before);
  const MetricsSnapshot after =
      metrics_from_json(util::Json::parse(doc.dump()));

  EXPECT_EQ(after.counter_value("test.roundtrip.calls"), 42u);
  EXPECT_DOUBLE_EQ(after.gauge_value("test.roundtrip.peak"), 1.5e6);
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  for (std::size_t i = 0; i < after.histograms.size(); ++i) {
    EXPECT_EQ(after.histograms[i].name, before.histograms[i].name);
    EXPECT_EQ(after.histograms[i].count, before.histograms[i].count);
    EXPECT_NEAR(after.histograms[i].sum_ms, before.histograms[i].sum_ms,
                1e-6);
    EXPECT_EQ(after.histograms[i].buckets, before.histograms[i].buckets);
  }

  // The rendered report mentions every metric by name.
  const std::string report = render_metrics_report(after);
  EXPECT_NE(report.find("test.roundtrip.calls"), std::string::npos);
  EXPECT_NE(report.find("test.roundtrip.peak"), std::string::npos);
  EXPECT_NE(report.find("test.roundtrip.lat"), std::string::npos);
}

TEST(Metrics, ReportShowsBackwardStatePerBackward) {
  MetricsSnapshot snap;
  snap.counters = {{"hsconas.nn.backward_state_bytes", 3u << 20},
                   {"hsconas.supernet.backwards", 6}};
  std::string report = render_metrics_report(snap);
  EXPECT_NE(report.find("backward state kept: 3.0 MiB (512.0 KiB per "
                        "supernet backward)"),
            std::string::npos)
      << report;
  snap.counters = {{"hsconas.nn.backward_state_bytes", 1u << 20}};
  report = render_metrics_report(snap);
  EXPECT_NE(report.find("backward state kept: 1.0 MiB (no supernet "
                        "backward)"),
            std::string::npos)
      << report;
}

TEST(Metrics, PercentileEstimateIsMonotone) {
  MetricsSnapshot::HistogramData data;
  data.name = "synthetic";
  data.count = 100;
  data.sum_ms = 100.0;
  data.min_ms = 0.05;
  data.max_ms = 40.0;
  data.buckets[6] = 50;   // <= 0.1 ms
  data.buckets[12] = 40;  // <= 5 ms
  data.buckets[16] = 10;  // <= 50 ms
  const double p50 = data.percentile_ms(0.5);
  const double p90 = data.percentile_ms(0.9);
  const double p99 = data.percentile_ms(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 0.0);
}

}  // namespace
}  // namespace hsconas::obs
