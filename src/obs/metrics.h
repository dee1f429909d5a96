#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hsconas::obs {

/// Process-wide metrics registry: named counters, gauges and fixed-bucket
/// latency histograms. Registration (name lookup) takes a mutex once;
/// the returned handles are stable for the life of the process and every
/// update on them is a lock-free relaxed atomic, so hot paths pay one
/// cache-line write per event. The conventional pattern is a
/// function-local static reference:
///
///   static obs::Counter& calls = obs::counter("hsconas.gemm.calls");
///   calls.add();
///
/// Metric names follow `hsconas.<subsystem>.<name>` (see
/// docs/OBSERVABILITY.md). Values aggregate across all threads; use
/// snapshot() to read a consistent-enough view and reset_all_metrics() to
/// zero values between test cases (handles stay valid).

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar, with add/update_max variants for accumulators
/// and high-water marks.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Monotone: keeps the maximum of all observed values.
  void update_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> value_{0.0};
};

/// Latency histogram with fixed logarithmic bucket edges (milliseconds,
/// 1 µs … 1 s decades in a 1-2-5 progression; the last bucket is +inf).
/// Also tracks count/sum/min/max so means and extremes survive bucketing.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 20;

  /// Upper bucket edges in ms; bucket i counts samples <= edge i, the
  /// final bucket everything larger.
  static const std::array<double, kNumBuckets - 1>& edges();

  void record(double ms) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum_ms() const noexcept {
    return sum_ms_.load(std::memory_order_relaxed);
  }
  double min_ms() const noexcept;  ///< 0 when empty
  double max_ms() const noexcept;  ///< 0 when empty
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_ms_{0.0};
  std::atomic<double> min_ms_{1e300};
  std::atomic<double> max_ms_{-1e300};
};

/// Look up (registering on first use) a metric by name. References remain
/// valid forever; the registry is never destroyed, so handles may be used
/// from static destructors.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Point-in-time copy of every registered metric, sorted by name. Values
/// read with relaxed atomics — per-metric exact, cross-metric slightly
/// racy, which is fine for reporting.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    double sum_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
    std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};

    double mean_ms() const {
      return count == 0 ? 0.0 : sum_ms / static_cast<double>(count);
    }
    /// Percentile estimate from the bucket counts (upper edge of the
    /// bucket containing quantile q in [0,1]); max_ms for the last bucket.
    double percentile_ms(double q) const;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramData> histograms;

  /// Value lookup helpers for tests/tools; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
};

MetricsSnapshot metrics_snapshot();

/// Zero every registered metric (tests; handles stay registered & valid).
void reset_all_metrics();

}  // namespace hsconas::obs
