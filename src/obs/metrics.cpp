#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

namespace hsconas::obs {

const std::array<double, Histogram::kNumBuckets - 1>& Histogram::edges() {
  // 1 µs … 1 s in a 1-2-5 progression (ms units). Covers everything from a
  // single GEMM microkernel dispatch to a full supernet training epoch.
  static const std::array<double, kNumBuckets - 1> kEdges = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,   0.5,  1.0,
      2.0,   5.0,   10.0,  20.0, 50.0, 100.0, 200.0, 500.0, 1000.0};
  return kEdges;
}

void Histogram::record(double ms) noexcept {
  const auto& e = edges();
  const std::size_t b = static_cast<std::size_t>(
      std::lower_bound(e.begin(), e.end(), ms) - e.begin());
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_ms_.load(std::memory_order_relaxed);
  while (!sum_ms_.compare_exchange_weak(cur, cur + ms,
                                        std::memory_order_relaxed)) {
  }
  cur = min_ms_.load(std::memory_order_relaxed);
  while (ms < cur && !min_ms_.compare_exchange_weak(
                         cur, ms, std::memory_order_relaxed)) {
  }
  cur = max_ms_.load(std::memory_order_relaxed);
  while (ms > cur && !max_ms_.compare_exchange_weak(
                         cur, ms, std::memory_order_relaxed)) {
  }
}

double Histogram::min_ms() const noexcept {
  return count() == 0 ? 0.0 : min_ms_.load(std::memory_order_relaxed);
}

double Histogram::max_ms() const noexcept {
  return count() == 0 ? 0.0 : max_ms_.load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ms_.store(0.0, std::memory_order_relaxed);
  min_ms_.store(1e300, std::memory_order_relaxed);
  max_ms_.store(-1e300, std::memory_order_relaxed);
}

double MetricsSnapshot::HistogramData::percentile_ms(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (static_cast<double>(cum) >= target && cum > 0) {
      return i < Histogram::edges().size() ? Histogram::edges()[i] : max_ms;
    }
  }
  return max_ms;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

namespace {

/// All three metric families share one registry so snapshot/reset see a
/// single consistent namespace. unique_ptr keeps handle addresses stable
/// across map rehash-free growth; the registry itself is leaked on
/// purpose so handles stay valid during static destruction.
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot metrics_snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    MetricsSnapshot::HistogramData d;
    d.name = name;
    d.count = h->count();
    d.sum_ms = h->sum_ms();
    d.min_ms = h->min_ms();
    d.max_ms = h->max_ms();
    for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      d.buckets[i] = h->bucket(i);
    }
    snap.histograms.push_back(std::move(d));
  }
  return snap;  // std::map iteration is already name-sorted
}

void reset_all_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  for (auto& [name, h] : r.histograms) h->reset();
}

}  // namespace hsconas::obs
