#include "obs/metrics.h"

#include <bit>
#include <cstdio>

namespace tgraph::obs {

namespace {

/// Relaxed atomic min/max via CAS; contention is rare (stats only).
void AtomicMin(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* target, int64_t value) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

QueryCounterValues QueryCounterValues::operator-(
    const QueryCounterValues& base) const {
  QueryCounterValues out;
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    out.values[i] = values[i] - base.values[i];
  }
  return out;
}

QueryCounterValues QueryCounters::Snapshot() const {
  QueryCounterValues out;
  for (size_t i = 0; i < kNumQueryCounters; ++i) {
    out.values[i] = values_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  int index = std::bit_width(static_cast<uint64_t>(value));
  return index < kNumBuckets ? index : kNumBuckets - 1;
}

int64_t HistogramSnapshot::BucketUpperBound(int index) {
  if (index <= 0) return 0;
  if (index >= kNumBuckets - 1) return INT64_MAX;
  return int64_t{1} << index;
}

void Histogram::Record(int64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  int64_t min = min_.load(std::memory_order_relaxed);
  int64_t max = max_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min;
  snap.max = snap.count == 0 ? 0 : max;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

int64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the percentile observation, 1-based.
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(count - 1)) + 1;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      // Tighten the bound with the observed extremes.
      int64_t upper = BucketUpperBound(i);
      return upper > max ? max : upper;
    }
  }
  return max;
}

std::string HistogramSnapshot::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%lld sum=%lld min=%lld max=%lld mean=%.1f p50<=%lld "
                "p99<=%lld",
                static_cast<long long>(count), static_cast<long long>(sum),
                static_cast<long long>(min), static_cast<long long>(max),
                Mean(), static_cast<long long>(ApproxPercentile(0.5)),
                static_cast<long long>(ApproxPercentile(0.99)));
  return buf;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& base) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, value] : delta.counters) {
    auto it = base.counters.find(name);
    if (it != base.counters.end()) value -= it->second;
  }
  for (auto& [name, histogram] : delta.histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end()) continue;
    histogram.count -= it->second.count;
    histogram.sum -= it->second.sum;
    for (int i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
      histogram.buckets[i] -= it->second.buckets[i];
    }
    // min/max are lifetime extremes; they cannot be subtracted, so keep
    // the current values as a conservative bound.
  }
  return delta;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, histogram] : histograms) {
    if (histogram.count == 0) continue;
    out += name + " " + histogram.ToString() + "\n";
  }
  return out;
}

}  // namespace tgraph::obs
