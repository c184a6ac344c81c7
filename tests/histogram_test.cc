#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rand.h"

namespace bohm {
namespace {

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  EXPECT_EQ(h.max(), 42u);
  // 42 lands in a bucket whose upper bound is >= 42 and close to it.
  EXPECT_GE(h.Percentile(0.5), 42u);
  EXPECT_LE(h.Percentile(0.5), 47u);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Record(v);
  // Values below kSubBuckets get exact buckets.
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(0.99), 15u);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) h.Record(rng.Uniform(1'000'000));
  uint64_t p25 = h.Percentile(0.25);
  uint64_t p50 = h.Percentile(0.50);
  uint64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, UniformMedianNearHalf) {
  Histogram h;
  Rng rng(2);
  for (int i = 0; i < 200000; ++i) h.Record(rng.Uniform(1000));
  uint64_t p50 = h.Percentile(0.5);
  EXPECT_GT(p50, 400u);
  EXPECT_LT(p50, 600u);
}

TEST(HistogramTest, BoundedRelativeError) {
  // Every recorded value's bucket upper bound is within 1/16 relative
  // error (the log-bucket resolution).
  Histogram h;
  std::vector<uint64_t> probes = {1, 17, 100, 12345, 999999, 1u << 30};
  for (uint64_t v : probes) {
    Histogram one;
    one.Record(v);
    uint64_t est = one.Percentile(0.5);
    EXPECT_GE(est, v);
    EXPECT_LE(static_cast<double>(est), static_cast<double>(v) * 1.07 + 1);
  }
  (void)h;
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
}

TEST(HistogramTest, QuantileClamped) {
  Histogram h;
  h.Record(7);
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Record(UINT64_MAX / 2);
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GT(h.Percentile(0.9), 0u);
}

TEST(HistogramTest, MergeEmptyIsNoop) {
  Histogram a, empty;
  a.Record(10);
  a.Record(30);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 30u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
  // Merging into an empty histogram reproduces the source.
  Histogram b;
  b.Merge(a);
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.max(), a.max());
  EXPECT_EQ(b.Percentile(0.5), a.Percentile(0.5));
}

TEST(HistogramTest, OverflowBucketClampsQuantile) {
  // Values beyond the last bucket range all land in the final bucket;
  // the quantile reported for them is the bucket's (huge) upper bound,
  // and max() keeps the exact value.
  Histogram h;
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  uint64_t q = h.Percentile(0.99);
  EXPECT_GT(q, uint64_t{1} << 40);  // far past any realistic latency
}

TEST(HistogramTest, SingleSampleAllQuantilesEqual) {
  Histogram h;
  h.Record(12345);
  uint64_t p50 = h.Percentile(0.50);
  EXPECT_EQ(h.Percentile(0.01), p50);
  EXPECT_EQ(h.Percentile(0.99), p50);
  EXPECT_EQ(h.Percentile(0.999), p50);
  EXPECT_EQ(h.Percentile(1.0), p50);
}

TEST(HistogramTest, MergeCommutes) {
  Rng rng(3);
  Histogram a, b;
  for (int i = 0; i < 1000; ++i) a.Record(rng.Uniform(10'000));
  for (int i = 0; i < 500; ++i) b.Record(rng.Uniform(1'000'000));
  Histogram ab = a;
  ab.Merge(b);
  Histogram ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.max(), ba.max());
  EXPECT_DOUBLE_EQ(ab.Mean(), ba.Mean());
  for (double q : {0.25, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(ab.Percentile(q), ba.Percentile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, DeltaSubtractsWindow) {
  // Simulate a monotonically growing histogram sampled at two points:
  // Delta(later, earlier) describes exactly the samples in between.
  Histogram earlier;
  earlier.Record(10);
  earlier.Record(20);
  earlier.Record(5000);  // an outlier before the window
  Histogram later = earlier;
  later.Record(100);
  later.Record(200);
  later.Record(300);
  Histogram d = Histogram::Delta(later, earlier);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.Mean(), 200.0);
  EXPECT_GE(d.Percentile(0.0), 100u);
  // The window's max comes from its own buckets, not the earlier outlier:
  // at most one sub-bucket (1/16) above the true max.
  EXPECT_GE(d.max(), 300u);
  EXPECT_LE(d.max(), 300u + 300u / 16);
  EXPECT_EQ(d.Percentile(1.0), d.max());
}

TEST(HistogramTest, DeltaOfEqualSnapshotsIsEmpty) {
  Histogram h;
  h.Record(42);
  Histogram d = Histogram::Delta(h, h);
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.max(), 0u);
  EXPECT_EQ(d.Percentile(0.5), 0u);
}

TEST(AtomicHistogramTest, RecordAndMergeMatchesPlain) {
  AtomicHistogram ah;
  Histogram plain;
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.Uniform(100'000);
    ah.Record(v);
    plain.Record(v);
  }
  EXPECT_EQ(ah.count(), plain.count());
  Histogram folded;
  ah.MergeInto(&folded);
  EXPECT_EQ(folded.count(), plain.count());
  EXPECT_EQ(folded.max(), plain.max());
  EXPECT_DOUBLE_EQ(folded.Mean(), plain.Mean());
  for (double q : {0.5, 0.99}) {
    EXPECT_EQ(folded.Percentile(q), plain.Percentile(q)) << "q=" << q;
  }
}

TEST(AtomicHistogramTest, MergeIntoAccumulates) {
  AtomicHistogram ah;
  ah.Record(10);
  Histogram out;
  out.Record(20);
  ah.MergeInto(&out);
  EXPECT_EQ(out.count(), 2u);
  EXPECT_DOUBLE_EQ(out.Mean(), 15.0);
}

TEST(AtomicHistogramTest, ConcurrentFoldSeesConsistentPrefix) {
  // Single writer records while a reader folds concurrently: every fold
  // must observe count <= writes-so-far and a percentile target backed
  // by real buckets (count is published last with release ordering).
  AtomicHistogram ah;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 20000 && !stop.load(std::memory_order_relaxed);
         ++i) {
      ah.Record(i % 997 + 1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    Histogram out;
    ah.MergeInto(&out);
    if (out.count() > 0) {
      EXPECT_GT(out.Percentile(0.5), 0u);
      EXPECT_LE(out.Percentile(0.5), out.Percentile(0.999));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  Histogram final_out;
  ah.MergeInto(&final_out);
  EXPECT_EQ(final_out.count(), ah.count());
}

}  // namespace
}  // namespace bohm
