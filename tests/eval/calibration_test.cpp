// Per-op table tests: obs::OpKey -> hwsim::OpDescriptor mapping and the
// profile-vs-simulator comparison (ratios, drift, rank correlation, worst
// offenders) over synthetic profiler snapshots.

#include "eval/latency_report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "hwsim/device.h"
#include "hwsim/registry.h"

namespace eval = hsconas::eval;
namespace hwsim = hsconas::hwsim;
namespace obs = hsconas::obs;

namespace {

obs::OpKey key(const std::string& op, const std::string& kind, long cin,
               long cout, long hw, long kernel = 3, long stride = 1,
               long groups = 1) {
  obs::OpKey k;
  k.op = op;
  k.kind = kind;
  k.batch = 1;
  k.in_ch = cin;
  k.out_ch = cout;
  k.in_h = hw;
  k.in_w = hw;
  k.kernel = kernel;
  k.stride = stride;
  k.groups = groups;
  return k;
}

obs::OpStats stats_for(const obs::OpKey& k, double wall_ms, double flops,
                       double bytes) {
  obs::OpStats st;
  st.key = k;
  st.signature = k.signature();
  st.calls = 4;
  st.flops_per_call = flops;
  st.bytes_per_call = bytes;
  st.wall_ms_total = wall_ms * 4.0;
  st.wall_ms_min = wall_ms;
  st.wall_ms_max = wall_ms;
  st.wall_ms_samples = {wall_ms, wall_ms, wall_ms, wall_ms};
  return st;
}

TEST(OpFromKey, MapsEveryPricedKind) {
  hwsim::OpDescriptor desc;

  ASSERT_TRUE(eval::op_from_key(key("conv2d", "conv", 16, 32, 14), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kConv);
  EXPECT_EQ(desc.in_channels, 16);
  EXPECT_EQ(desc.out_channels, 32);
  EXPECT_EQ(desc.kernel, 3);

  ASSERT_TRUE(eval::op_from_key(
      key("conv2d", "dwconv", 32, 32, 14, 5, 2, 32), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kDepthwiseConv);
  EXPECT_EQ(desc.kernel, 5);
  EXPECT_EQ(desc.stride, 2);

  ASSERT_TRUE(eval::op_from_key(key("linear", "linear", 128, 10, 1), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kLinear);
  EXPECT_EQ(desc.in_channels, 128);
  EXPECT_EQ(desc.out_channels, 10);

  ASSERT_TRUE(eval::op_from_key(key("gap", "pool", 64, 64, 7, 7, 7), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kPool);

  ASSERT_TRUE(eval::op_from_key(key("relu", "eltwise", 64, 64, 7), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kElementwise);

  ASSERT_TRUE(
      eval::op_from_key(key("channel_shuffle", "shuffle", 64, 64, 7), &desc));
  EXPECT_EQ(desc.kind, hwsim::OpKind::kShuffle);
}

TEST(OpFromKey, BackwardAndMalformedOpsAreUnpriced) {
  hwsim::OpDescriptor desc;
  // Training-only ops: the device model prices inference.
  EXPECT_FALSE(
      eval::op_from_key(key("conv2d.bwd", "conv", 16, 32, 14), &desc));
  EXPECT_FALSE(eval::op_from_key(key("relu.bwd", "eltwise", 64, 64, 7),
                                  &desc));
  // Unknown pricing category.
  EXPECT_FALSE(eval::op_from_key(key("mystery", "other", 16, 16, 8), &desc));
  // Degenerate geometry.
  EXPECT_FALSE(eval::op_from_key(key("conv2d", "conv", 0, 32, 14), &desc));
  EXPECT_FALSE(eval::op_from_key(key("conv2d", "conv", 16, 32, 0), &desc));
}

TEST(CompareProfile, PerfectRankingGivesUnitTau) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  // Three convs whose measured times follow their true cost ordering; the
  // measured scale (host ms) is far off the simulated-device scale, which
  // must not matter for rank correlation.
  std::vector<obs::OpStats> stats;
  stats.push_back(
      stats_for(key("conv2d", "conv", 8, 8, 8), 0.02, 1e6, 1e5));
  stats.push_back(
      stats_for(key("conv2d", "conv", 32, 32, 16), 0.5, 6e7, 2e6));
  stats.push_back(
      stats_for(key("conv2d", "conv", 64, 64, 32), 7.0, 1e9, 1e7));

  const eval::OpTable report = eval::compare_profile(stats, device);
  EXPECT_EQ(report.priced_ops, 3u);
  EXPECT_EQ(report.unpriced_ops, 0u);
  EXPECT_DOUBLE_EQ(report.kendall_tau, 1.0);
  EXPECT_DOUBLE_EQ(report.spearman_rho, 1.0);
  EXPECT_GT(report.median_ratio, 0.0);
  for (const auto& cmp : report.ops) {
    EXPECT_TRUE(cmp.priced);
    EXPECT_GT(cmp.predicted_ms, 0.0);
    EXPECT_GT(cmp.ratio, 0.0);
  }
}

TEST(CompareProfile, InvertedRankingGivesNegativeTau) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  // Same ops, measured times reversed: the cheapest op "measures" slowest.
  std::vector<obs::OpStats> stats;
  stats.push_back(
      stats_for(key("conv2d", "conv", 8, 8, 8), 7.0, 1e6, 1e5));
  stats.push_back(
      stats_for(key("conv2d", "conv", 32, 32, 16), 0.5, 6e7, 2e6));
  stats.push_back(
      stats_for(key("conv2d", "conv", 64, 64, 32), 0.02, 1e9, 1e7));
  const eval::OpTable report = eval::compare_profile(stats, device);
  EXPECT_DOUBLE_EQ(report.kendall_tau, -1.0);
}

TEST(CompareProfile, UnpricedOpsAreKeptButExcludedFromCorrelation) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  std::vector<obs::OpStats> stats;
  stats.push_back(stats_for(key("conv2d", "conv", 8, 8, 8), 0.02, 1e6, 1e5));
  stats.push_back(
      stats_for(key("conv2d", "conv", 32, 32, 16), 0.5, 6e7, 2e6));
  stats.push_back(
      stats_for(key("conv2d.bwd", "conv", 32, 32, 16), 1.5, 1e8, 4e6));

  const eval::OpTable report = eval::compare_profile(stats, device);
  EXPECT_EQ(report.priced_ops, 2u);
  EXPECT_EQ(report.unpriced_ops, 1u);
  EXPECT_EQ(report.ops.size(), 3u);
  // Priced rows sort first; the backward op survives for attribution.
  EXPECT_TRUE(report.ops[0].priced);
  EXPECT_TRUE(report.ops[1].priced);
  EXPECT_FALSE(report.ops[2].priced);
}

TEST(CompareProfile, WorstOffendersRankByDriftFromMedianRatio) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  std::vector<obs::OpStats> stats;
  // Five ops measuring exactly at prediction except one 50x outlier.
  const long sizes[] = {8, 12, 16, 24, 32};
  for (long c : sizes) {
    hwsim::OpDescriptor desc;
    obs::OpKey k = key("conv2d", "conv", c, c, 14);
    ASSERT_TRUE(eval::op_from_key(k, &desc));
    double ms = device.op_latency_ms(desc, 1);
    if (c == 16) ms *= 50.0;
    stats.push_back(stats_for(k, ms, 1e6, 1e5));
  }
  const eval::OpTable report = eval::compare_profile(stats, device);
  const auto worst = report.worst_offenders(2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].measured.key.in_ch, 16);
  EXPECT_GT(worst[0].drift, worst[1].drift);
}

TEST(CompareProfile, ComputeBoundFlagFollowsRidgePoint) {
  const hwsim::DeviceProfile profile = hwsim::device_by_name("xavier");
  const hwsim::DeviceSimulator device(profile);
  const double ridge = profile.peak_gflops / profile.mem_bandwidth_gbs;

  std::vector<obs::OpStats> stats;
  stats.push_back(stats_for(key("conv2d", "conv", 8, 8, 8), 0.1,
                            ridge * 2.0 * 1e6, 1e6));  // AI = 2*ridge
  stats.push_back(stats_for(key("conv2d", "conv", 16, 16, 8), 0.1,
                            ridge * 0.5 * 1e6, 1e6));  // AI = ridge/2
  const eval::OpTable report = eval::compare_profile(stats, device);
  ASSERT_EQ(report.ops.size(), 2u);
  bool saw_compute = false, saw_memory = false;
  for (const auto& cmp : report.ops) {
    if (cmp.measured.key.in_ch == 8) {
      saw_compute = cmp.compute_bound;
    } else {
      saw_memory = !cmp.compute_bound;
    }
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_memory);
}

TEST(CompareProfile, EmptySnapshotYieldsEmptyReport) {
  const hwsim::DeviceSimulator device(hwsim::device_by_name("xavier"));
  const eval::OpTable report = eval::compare_profile({}, device);
  EXPECT_TRUE(report.ops.empty());
  EXPECT_EQ(report.priced_ops, 0u);
  EXPECT_DOUBLE_EQ(report.kendall_tau, 0.0);
}

}  // namespace
