#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/exposition.h"

#include "dataflow/context.h"
#include "dataflow/dataset.h"

namespace tgraph::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(GaugeTest, LastValueWins) {
  Gauge gauge;
  gauge.Set(7);
  gauge.Set(3);
  EXPECT_EQ(gauge.value(), 3);
}

TEST(HistogramTest, BucketIndexPowersOfTwo) {
  // Bucket 0: v <= 0; bucket i: [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  // Huge values saturate into the last bucket instead of overflowing.
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketBoundsCoverBucketedValues) {
  // BucketUpperBound is inclusive for bucket 0 (which holds v <= 0) and
  // exclusive above it (bucket i holds [2^(i-1), 2^i)).
  for (int64_t v : {0, 1, 2, 3, 5, 8, 100, 4096, 1 << 20}) {
    int bucket = Histogram::BucketIndex(v);
    if (bucket == 0) {
      EXPECT_LE(v, HistogramSnapshot::BucketUpperBound(bucket)) << v;
    } else {
      EXPECT_LT(v, HistogramSnapshot::BucketUpperBound(bucket)) << v;
    }
    if (bucket > 1) {
      EXPECT_GE(v, HistogramSnapshot::BucketUpperBound(bucket - 1)) << v;
    }
  }
}

TEST(HistogramTest, SnapshotStats) {
  Histogram histogram;
  for (int64_t v : {1, 2, 4, 8, 16}) histogram.Record(v);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.sum, 31);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 16);
  EXPECT_DOUBLE_EQ(snap.Mean(), 6.2);
  // Percentiles report an inclusive upper bound: the bound of the bucket
  // holding the ranked observation, tightened by the observed max. The
  // median observation (4) lives in bucket [4, 8) -> bound 8.
  EXPECT_EQ(snap.ApproxPercentile(0.5), 8);
  EXPECT_EQ(snap.ApproxPercentile(1.0), 16);
  // p0 is the first observation's bucket bound: 1 lives in [1, 2) -> 2.
  EXPECT_EQ(snap.ApproxPercentile(0.0), 2);
}

TEST(HistogramTest, EmptySnapshot) {
  Histogram histogram;
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 0);
  EXPECT_EQ(snap.ApproxPercentile(0.5), 0);
}

TEST(HistogramTest, SingleSamplePercentiles) {
  Histogram histogram;
  histogram.Record(5);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1);
  EXPECT_EQ(snap.min, 5);
  EXPECT_EQ(snap.max, 5);
  // With one observation every percentile is that observation; the bucket
  // bound [4, 8) -> 8 tightens to the observed max.
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.ApproxPercentile(p), 5) << p;
  }
}

TEST(HistogramTest, SaturatedTopBucketPercentiles) {
  Histogram histogram;
  // INT64_MAX saturates into the last bucket, whose upper bound is
  // INT64_MAX itself — percentiles must not overflow past it.
  histogram.Record(INT64_MAX);
  histogram.Record(INT64_MAX - 1);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.buckets[Histogram::kNumBuckets - 1], 2);
  EXPECT_EQ(snap.ApproxPercentile(0.5), INT64_MAX);
  EXPECT_EQ(snap.ApproxPercentile(1.0), INT64_MAX);
  EXPECT_EQ(snap.max, INT64_MAX);
}

TEST(HistogramTest, PercentileClampsOutOfRangeP) {
  Histogram histogram;
  for (int64_t v : {1, 2, 4}) histogram.Record(v);
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.ApproxPercentile(-0.5), snap.ApproxPercentile(0.0));
  EXPECT_EQ(snap.ApproxPercentile(1.5), snap.ApproxPercentile(1.0));
}

TEST(HistogramTest, ConcurrentRecordIsConsistent) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(i % 128);
    });
  }
  for (auto& thread : threads) thread.join();
  HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t bucket : snap.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 127);
}

TEST(MetricsRegistryTest, NamesResolveToStableInstances) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test.registry.stable");
  Counter* b = registry.GetCounter("test.registry.stable");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("test.registry.other"), a);
  EXPECT_EQ(registry.GetHistogram("test.registry.h"),
            registry.GetHistogram("test.registry.h"));
}

TEST(MetricsRegistryTest, SnapshotDeltaIsolatesARun) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.delta.counter");
  Histogram* histogram = registry.GetHistogram("test.delta.histogram");
  counter->Add(10);
  histogram->Record(4);

  MetricsSnapshot before = registry.Snapshot();
  counter->Add(5);
  histogram->Record(8);
  histogram->Record(8);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);

  EXPECT_EQ(delta.counters.at("test.delta.counter"), 5);
  EXPECT_EQ(delta.histograms.at("test.delta.histogram").count, 2);
  EXPECT_EQ(delta.histograms.at("test.delta.histogram").sum, 16);
}

TEST(MetricsRegistryTest, ToStringOmitsZeroCounters) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.tostring.zero");
  Counter* nonzero = registry.GetCounter("test.tostring.nonzero");
  nonzero->Add(3);
  std::string rendered = registry.ToString();
  EXPECT_EQ(rendered.find("test.tostring.zero"), std::string::npos);
  EXPECT_NE(rendered.find("test.tostring.nonzero 3"), std::string::npos);
}

// Snapshot while writers are mid-flight: the snapshot must be internally
// coherent (bucket sums match counts at some point in the interleaving)
// and must never crash or tear. This is the /metrics scrape path: the
// exposition endpoint snapshots the registry while workers serve queries.
TEST(MetricsRegistryTest, SnapshotUnderConcurrentWritesIsCoherent) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.concurrent.counter");
  Histogram* histogram = registry.GetHistogram("test.concurrent.histogram");
  counter->Reset();
  histogram->Reset();

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> start{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!start.load()) {
      }
      for (int i = 0; i < kPerWriter; ++i) {
        counter->Increment();
        histogram->Record(i % 64);
      }
    });
  }
  start.store(true);
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot snap = registry.Snapshot();
    int64_t count = snap.counters.at("test.concurrent.counter");
    EXPECT_GE(count, 0);
    EXPECT_LE(count, int64_t{kWriters} * kPerWriter);
    const HistogramSnapshot& h =
        snap.histograms.at("test.concurrent.histogram");
    int64_t bucket_total = 0;
    for (int64_t bucket : h.buckets) {
      EXPECT_GE(bucket, 0);
      bucket_total += bucket;
    }
    // Mid-flight snapshots are allowed to be slightly stale across fields
    // (relaxed counters), but never out of range or torn.
    EXPECT_GE(h.count, 0);
    EXPECT_LE(h.count, int64_t{kWriters} * kPerWriter);
    EXPECT_LE(bucket_total, int64_t{kWriters} * kPerWriter);
  }
  for (auto& writer : writers) writer.join();
  MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.counters.at("test.concurrent.counter"),
            int64_t{kWriters} * kPerWriter);
  EXPECT_EQ(final_snap.histograms.at("test.concurrent.histogram").count,
            int64_t{kWriters} * kPerWriter);
}

TEST(DataflowMetricsTest, ShuffleRecordsBytesAndSkewHistogram) {
  dataflow::ExecutionContext ctx({.num_workers = 4});
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  std::vector<std::pair<int, int>> data;
  for (int i = 0; i < 1000; ++i) data.emplace_back(i % 10, i);
  auto counts = dataflow::Dataset<std::pair<int, int>>::FromVector(&ctx, data)
                    .CountByKey()
                    .Collect();
  EXPECT_EQ(counts.size(), 10u);

  MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().DeltaSince(before);
  // CountByKey = map + ReduceByKey -> exactly one shuffle of the combined
  // per-partition pairs.
  EXPECT_GE(delta.counters.at(metric_names::kShuffles), 1);
  int64_t records = delta.counters.at(metric_names::kShuffleRecords);
  EXPECT_GT(records, 0);
  EXPECT_EQ(delta.counters.at(metric_names::kShuffleBytes),
            records * static_cast<int64_t>(sizeof(std::pair<int, int64_t>)));
  const HistogramSnapshot& skew =
      delta.histograms.at(metric_names::kShufflePartitionSize);
  EXPECT_GT(skew.count, 0);
  EXPECT_EQ(skew.sum, records);  // every shuffled record lands in a partition
}

// --- Prometheus / JSON exposition ------------------------------------------

TEST(ExpositionTest, PrometheusTextRendersCountersGaugesHistograms) {
  MetricsSnapshot snap;
  snap.counters["server.cache.hits"] = 12;
  snap.gauges["server.queue.depth"] = 3;
  HistogramSnapshot h;
  for (int64_t v : {1, 3, 3, 9}) {
    h.buckets[Histogram::BucketIndex(v)] += 1;
    h.count += 1;
    h.sum += v;
  }
  h.min = 1;
  h.max = 9;
  snap.histograms["server.request_micros"] = h;

  std::string text = ToPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE tgraph_server_cache_hits counter\n"
                      "tgraph_server_cache_hits 12\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tgraph_server_queue_depth gauge\n"
                      "tgraph_server_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tgraph_server_request_micros histogram"),
            std::string::npos);
  // Cumulative buckets: 1 -> [1,2), 3,3 -> [2,4), 9 -> [8,16).
  EXPECT_NE(text.find("tgraph_server_request_micros_bucket{le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tgraph_server_request_micros_bucket{le=\"4\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("tgraph_server_request_micros_bucket{le=\"16\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("tgraph_server_request_micros_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("tgraph_server_request_micros_sum 16\n"),
            std::string::npos);
  EXPECT_NE(text.find("tgraph_server_request_micros_count 4\n"),
            std::string::npos);
  // Dots never leak into the exposition charset.
  EXPECT_EQ(text.find("server.cache"), std::string::npos);
}

TEST(ExpositionTest, PrometheusBucketsAreCumulativeAndMonotonic) {
  Histogram histogram;
  for (int64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  MetricsSnapshot snap;
  snap.histograms["test.mono"] = histogram.Snapshot();
  std::string text = ToPrometheusText(snap);
  // Walk every _bucket line: counts must be non-decreasing and end at the
  // total count — the invariant Prometheus clients rely on.
  int64_t previous = -1;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("_bucket{le=\"", pos)) != std::string::npos) {
    size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    int64_t cumulative = std::stoll(text.substr(value_at + 2));
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    ++buckets_seen;
    pos = value_at;
  }
  EXPECT_GT(buckets_seen, 2);
  EXPECT_EQ(previous, 1000);  // the +Inf bucket carries the full count
}

TEST(ExpositionTest, MetricsJsonIsWellFormedAndEscapes) {
  MetricsSnapshot snap;
  snap.counters["test.json.counter"] = 5;
  HistogramSnapshot h;
  h.count = 1;
  h.sum = 7;
  h.min = 7;
  h.max = 7;
  h.buckets[Histogram::BucketIndex(7)] = 1;
  snap.histograms["test.json.histogram"] = h;
  std::string json = MetricsJson(snap);
  EXPECT_NE(json.find("\"counters\":{\"test.json.counter\":5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.json.histogram\":{\"count\":1,\"sum\":7"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":7"), std::string::npos);

  std::string escaped;
  AppendJsonEscaped(&escaped, "a\"b\\c\nd\x01");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\u0001");
}

TEST(DataflowMetricsTest, ParallelForCountsOneStageAndItsTasks) {
  dataflow::ExecutionContext ctx({.num_workers = 2});
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  ctx.ParallelFor(5, [](size_t) {});
  const MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at(metric_names::kStages), 1);
  EXPECT_EQ(delta.counters.at(metric_names::kTasks), 5);
}

}  // namespace
}  // namespace tgraph::obs
