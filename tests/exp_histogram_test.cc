// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the DGIM exponential histogram: the (1 +/- eps) window-count
// guarantee under constant-rate and bursty arrivals, logarithmic bucket
// growth, expiry across silence, and AddBatch leaving exactly the state
// (Save() bytes) that per-item Add leaves.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/exp_histogram.h"
#include "util/bits.h"
#include "util/rng.h"
#include "util/serial.h"
#include "workload_steps.h"

namespace swsample {
namespace {

TEST(ExpHistogramTest, CreateValidation) {
  EXPECT_FALSE(ExpHistogram::Create(0, 0.1).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 0.0).ok());
  EXPECT_FALSE(ExpHistogram::Create(10, 1.5).ok());
  EXPECT_TRUE(ExpHistogram::Create(10, 1.0).ok());
}

TEST(ExpHistogramTest, ExactForTinyCounts) {
  auto h = ExpHistogram::Create(100, 0.1).ValueOrDie();
  EXPECT_EQ(h.Estimate(), 0u);
  h.Add(0);
  EXPECT_EQ(h.Estimate(), 1u);
  h.Add(1);
  h.Add(2);
  EXPECT_EQ(h.Estimate(), 3u);
}

TEST(ExpHistogramTest, AllExpire) {
  auto h = ExpHistogram::Create(5, 0.2).ValueOrDie();
  for (Timestamp t = 0; t < 20; ++t) h.Add(t);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(100);
  EXPECT_EQ(h.Estimate(), 0u);
  EXPECT_EQ(h.BucketCount(), 0u);
}

void CheckRelativeError(double eps, double lambda, Timestamp t0,
                        uint64_t seed) {
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  WorkloadSteps stream(PoissonUniformSpec(lambda, 16), seed, 6 * t0);
  std::deque<Timestamp> exact;  // timestamps of active arrivals
  for (Timestamp t = 0; t < 6 * t0; ++t) {
    for (const Item& item : stream.Step()) {
      h.Add(item.timestamp);
      exact.push_back(item.timestamp);
    }
    h.AdvanceTime(t);
    while (!exact.empty() && t - exact.front() >= t0) exact.pop_front();
    const double truth = static_cast<double>(exact.size());
    const double got = static_cast<double>(h.Estimate());
    if (truth >= 8) {
      EXPECT_LE(std::fabs(got - truth), eps * truth + 1.0)
          << "t=" << t << " truth=" << truth << " got=" << got;
    }
  }
}

TEST(ExpHistogramTest, RelativeErrorEps20) {
  CheckRelativeError(0.2, 4.0, 200, 1);
}
TEST(ExpHistogramTest, RelativeErrorEps10) {
  CheckRelativeError(0.1, 8.0, 300, 2);
}
TEST(ExpHistogramTest, RelativeErrorEps5Bursty) {
  CheckRelativeError(0.05, 20.0, 150, 3);
}

TEST(ExpHistogramTest, BucketCountLogarithmic) {
  auto h = ExpHistogram::Create(1 << 16, 0.1).ValueOrDie();
  for (Timestamp t = 0; t < (1 << 16); ++t) h.Add(t);
  // O(eps^-1 log n): k/2+2 = 7 per size class, ~17 classes.
  EXPECT_LE(h.BucketCount(), 7u * 18u);
  EXPECT_GE(h.BucketCount(), 17u);
}

TEST(ExpHistogramTest, MemoryWordsTracksBuckets) {
  auto h = ExpHistogram::Create(1000, 0.25).ValueOrDie();
  for (Timestamp t = 0; t < 500; ++t) h.Add(t);
  EXPECT_EQ(h.MemoryWords(), 3 + h.BucketCount() * 2);
}

TEST(ExpHistogramTest, BurstAtOneTimestamp) {
  auto h = ExpHistogram::Create(10, 0.1).ValueOrDie();
  for (int i = 0; i < 10000; ++i) h.Add(50);
  const double got = static_cast<double>(h.Estimate());
  EXPECT_NEAR(got, 10000.0, 0.1 * 10000.0);
  h.AdvanceTime(59);
  EXPECT_GT(h.Estimate(), 0u);
  h.AdvanceTime(60);
  EXPECT_EQ(h.Estimate(), 0u);
}

// Long steady-state run: the ring-backed bucket list cycles through many
// evict/append/merge rounds (head wraps repeatedly) and the estimate must
// honor the eps bound in every window position, not just the first fill.
TEST(ExpHistogramTest, SteadyStateCyclingHonorsEps) {
  const Timestamp t0 = 512;
  const double eps = 0.1;
  auto h = ExpHistogram::Create(t0, eps).ValueOrDie();
  uint64_t arrivals = 0;
  Rng rng(2024);
  std::deque<Timestamp> window;  // reference arrival times
  for (Timestamp t = 0; t < 20 * t0; ++t) {
    const uint64_t burst = rng.UniformIndex(3);
    for (uint64_t b = 0; b < burst; ++b) {
      h.Add(t);
      window.push_back(t);
      ++arrivals;
    }
    h.AdvanceTime(t);
    while (!window.empty() && t - window.front() >= t0) window.pop_front();
    const double exact = static_cast<double>(window.size());
    const double estimate = static_cast<double>(h.Estimate());
    if (exact >= 8) {
      EXPECT_LE(std::fabs(estimate - exact), eps * exact + 1.0)
          << "t=" << t << " exact=" << exact << " got=" << estimate;
    }
  }
  ASSERT_GT(arrivals, t0);
}

std::string SaveBytes(const ExpHistogram& h) {
  BinaryWriter w;
  h.Save(&w);
  return w.Release();
}

TEST(ExpHistogramTest, AddBatchBytesMatchPerItemAdd) {
  // Bursty (runs at one timestamp), expiring (silences past t0, clock-only
  // AdvanceTime between batches) and regressing (timestamps below the
  // clock) streams, cut into ragged batches. After every batch the batched
  // histogram must serialize to the per-item histogram's bytes, and the
  // bytes must survive a Load/Save round trip.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const double eps = seed % 3 == 0 ? 1.0 : seed % 3 == 1 ? 0.3 : 0.05;
    const Timestamp t0 = 1 + static_cast<Timestamp>(rng.UniformIndex(80));
    auto per_item = ExpHistogram::Create(t0, eps).ValueOrDie();
    auto batched = ExpHistogram::Create(t0, eps).ValueOrDie();
    auto reloaded = ExpHistogram::Create(t0, eps).ValueOrDie();
    Timestamp ts = 0;
    uint64_t index = 0;
    for (int round = 0; round < 120; ++round) {
      std::vector<Item> batch(rng.UniformIndex(300));
      for (Item& item : batch) {
        const uint64_t roll = rng.UniformIndex(100);
        if (roll < 2) {
          ts += 2 * t0;  // silence: everything expires
        } else if (roll < 40) {
          ts += 1;
        }
        // 40..89: burst at the current timestamp; 90..99: a regression.
        const Timestamp at =
            roll >= 90 ? std::max<Timestamp>(0, ts - 3) : ts;
        item = Item{0, index++, at};
      }
      for (const Item& item : batch) per_item.Add(item.timestamp);
      batched.AddBatch(batch);
      if (rng.UniformIndex(6) == 0) {
        const Timestamp now = ts + static_cast<Timestamp>(rng.UniformIndex(t0));
        per_item.AdvanceTime(now);
        batched.AdvanceTime(now);
      }
      const std::string bytes = SaveBytes(per_item);
      ASSERT_EQ(SaveBytes(batched), bytes) << "round " << round;
      BinaryReader r(bytes);
      ASSERT_TRUE(reloaded.Load(&r));
      ASSERT_EQ(SaveBytes(reloaded), bytes);
      ASSERT_EQ(batched.Estimate(), per_item.Estimate());
    }
  }
}

}  // namespace
}  // namespace swsample
