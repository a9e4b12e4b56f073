// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the timestamp-window payload tracker and the timestamp halves
// of Corollaries 5.2/5.4 behind the sink table: forward counts
// must be exact for the sampled position, candidates must survive merges
// and re-straddling (item-wise AND batched), and F_k / entropy estimates
// must track the exact windowed value with the extra (1 +/- eps) count
// factor — including under bursty arrivals with AdvanceTime-only steps.
// The batch-vs-item oracle for the value-indexed count path: batched units
// sample uniformly at every batch size, and every unit's count stays exact
// under timestamp regressions, quiet gaps and batches straddling expiry.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/entropy.h"
#include "apps/freq_moments.h"
#include "apps/payload_substrate.h"
#include "stat_check.h"
#include "stats/exact.h"
#include "stream/workload.h"
#include "test_sinks.h"
#include "util/rng.h"

namespace swsample {
namespace {

TsForwardCountUnit MakeUnit(Timestamp t0, uint64_t seed) {
  return TsForwardCountUnit(t0, seed, CountOnSampled{}, CountOnArrival{});
}

TEST(TsForwardCountTest, CountsExactOnFixedStream) {
  // One-per-step arrivals with known values; whatever position is sampled,
  // the reported count must equal the true forward occurrence count.
  const std::vector<uint64_t> values = {1, 2, 1, 3, 1, 2, 2, 1, 3, 1,
                                        2, 1, 1, 3, 2, 1, 2, 3, 3, 1};
  for (int trial = 0; trial < 300; ++trial) {
    auto unit = MakeUnit(/*t0=*/12, Rng::ForkSeed(100, trial));
    for (uint64_t i = 0; i < values.size(); ++i) {
      unit.Observe(Item{values[i], i, static_cast<Timestamp>(i)});
    }
    auto s = unit.Sample();
    ASSERT_TRUE(s.has_value());
    uint64_t expected = 0;
    for (uint64_t j = s->item.index; j < values.size(); ++j) {
      expected += (values[j] == values[s->item.index]);
    }
    EXPECT_EQ(s->payload.count, expected)
        << "sampled index " << s->item.index;
  }
}

TEST(TsForwardCountTest, BatchedCountsExactOnFixedStream) {
  // The batched path defers the candidate-map sync to the batch end and
  // replays new candidates from the span; the forward counts must come out
  // identical to item-wise feeding, at every ragged batch size.
  const std::vector<uint64_t> values = {1, 2, 1, 3, 1, 2, 2, 1, 3, 1,
                                        2, 1, 1, 3, 2, 1, 2, 3, 3, 1};
  std::vector<Item> items;
  for (uint64_t i = 0; i < values.size(); ++i) {
    items.push_back(Item{values[i], i, static_cast<Timestamp>(i)});
  }
  for (uint64_t batch : {1u, 3u, 7u, 20u}) {
    for (int trial = 0; trial < 100; ++trial) {
      auto unit = MakeUnit(/*t0=*/12, Rng::ForkSeed(4000 + batch, trial));
      for (uint64_t pos = 0; pos < items.size(); pos += batch) {
        const uint64_t take =
            std::min<uint64_t>(batch, items.size() - pos);
        unit.ObserveBatch(
            std::span<const Item>(items.data() + pos, take));
      }
      auto s = unit.Sample();
      ASSERT_TRUE(s.has_value());
      uint64_t expected = 0;
      for (uint64_t j = s->item.index; j < values.size(); ++j) {
        expected += (values[j] == values[s->item.index]);
      }
      EXPECT_EQ(s->payload.count, expected)
          << "batch " << batch << " sampled index " << s->item.index;
    }
  }
}

TEST(TsForwardCountTest, CountsSurviveExpiryRestructuring) {
  // Bursts then silence force straddle transitions; counts stay exact.
  Rng value_rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto unit = MakeUnit(/*t0=*/6, Rng::ForkSeed(500, trial));
    std::vector<uint64_t> values;
    uint64_t index = 0;
    Timestamp t = 0;
    for (uint64_t burst : {5u, 0u, 3u, 0u, 0u, 4u, 1u, 2u}) {
      for (uint64_t i = 0; i < burst; ++i) {
        uint64_t v = value_rng.UniformIndex(3);
        values.push_back(v);
        unit.Observe(Item{v, index++, t});
      }
      unit.AdvanceTime(t);
      ++t;
    }
    auto s = unit.Sample();
    if (!s) continue;
    uint64_t expected = 0;
    for (uint64_t j = s->item.index; j < values.size(); ++j) {
      expected += (values[j] == values[s->item.index]);
    }
    EXPECT_EQ(s->payload.count, expected);
  }
}

TEST(TsForwardCountTest, MemoryStaysLogarithmic) {
  auto unit = MakeUnit(/*t0=*/1 << 12, /*seed=*/9);
  uint64_t max_words = 0;
  for (uint64_t i = 0; i < (1 << 13); ++i) {
    unit.Observe(Item{i % 64, i, static_cast<Timestamp>(i)});
    max_words = std::max(max_words, unit.MemoryWords());
  }
  EXPECT_LT(max_words, 1000u);  // O(log n) structures + payload map
}

// Occurrences of items[s].value at or after position s (items carry
// index == position).
uint64_t BruteForwardCount(std::span<const Item> items, uint64_t s) {
  uint64_t count = 0;
  for (uint64_t j = s; j < items.size(); ++j) {
    count += items[j].value == items[s].value;
  }
  return count;
}

// Feeds `items` in chunks of `batch` arrivals; batch 0 is item-wise.
void Feed(TsForwardCountUnit& unit, std::span<const Item> items,
          uint64_t batch) {
  if (batch == 0) {
    for (const Item& item : items) unit.Observe(item);
    return;
  }
  for (uint64_t pos = 0; pos < items.size(); pos += batch) {
    unit.ObserveBatch(
        items.subspan(pos, std::min<uint64_t>(batch, items.size() - pos)));
  }
}

TEST(TsForwardCountTest, BatchedSamplesUniformAtEveryBatchSize) {
  // Two arrivals per time step and t0 = 8: the active window is always
  // the last 16 arrivals, and by the end the structure straddles expiry.
  // Every batch size must sample uniformly over it, match item-wise
  // feeding, and carry the exact forward count.
  constexpr Timestamp kT0 = 8;
  constexpr uint64_t kItems = 70;
  constexpr uint64_t kActive = 16;
  constexpr int kTrials = 3200;
  std::vector<Item> items;
  for (uint64_t i = 0; i < kItems; ++i) {
    items.push_back(Item{i % 5, i, static_cast<Timestamp>(i / 2)});
  }
  std::vector<uint64_t> item_wise;
  for (uint64_t batch : {0u, 1u, 7u, 1024u}) {
    std::vector<uint64_t> cells(kActive, 0);
    for (int trial = 0; trial < kTrials; ++trial) {
      auto unit = MakeUnit(kT0, Rng::ForkSeed(9100 + batch, trial));
      Feed(unit, items, batch);
      auto s = unit.Sample();
      ASSERT_TRUE(s.has_value());
      ASSERT_GE(s->item.index, kItems - kActive) << "batch " << batch;
      ASSERT_EQ(s->payload.count, BruteForwardCount(items, s->item.index));
      ++cells[s->item.index - (kItems - kActive)];
    }
    EXPECT_TRUE(IsUniform(cells, 9100 + batch)) << "batch " << batch;
    if (batch == 0) {
      item_wise = cells;
    } else {
      EXPECT_TRUE(SameDistribution(item_wise, cells, 9100 + batch))
          << "batch " << batch;
    }
  }
}

// A bursty stream with timestamp regressions (which sinks clamp to their
// clock) and AdvanceTime-only gaps. It records every arrival's clamped
// timestamp, so checks can tell which arrivals are active.
class ClampedStream {
 public:
  /// Values are `domain` distinct 64-bit words spread over all bits (an
  /// odd-multiplier bijection of [0, domain)), so the count table's
  /// hashing sees realistic keys, 0 included.
  ClampedStream(uint64_t seed, Timestamp t0, uint64_t domain)
      : rng_(seed), t0_(t0), domain_(domain) {}

  /// The next `len` arrivals: 0-2 time units apart, and about one in
  /// seven reaching up to 4 units into the past.
  std::vector<Item> Chunk(uint64_t len) {
    std::vector<Item> chunk;
    for (uint64_t i = 0; i < len; ++i) {
      raw_ += static_cast<Timestamp>(rng_.UniformIndex(3));
      Timestamp ts = raw_;
      if (rng_.UniformIndex(7) == 0) {
        ts = std::max<Timestamp>(
            0, ts - static_cast<Timestamp>(rng_.UniformIndex(5)));
      }
      const uint64_t value =
          rng_.UniformIndex(domain_) * 0xD6E8FEB86659FD93ull;
      const Item item{value, items_.size(), ts};
      clock_ = std::max(clock_, ts);
      items_.push_back(item);
      clamped_.push_back(clock_);
      chunk.push_back(item);
    }
    return chunk;
  }

  /// A quiet gap of up to two windows; returns the clock to advance to.
  Timestamp Gap() {
    clock_ += static_cast<Timestamp>(rng_.UniformIndex(2 * t0_));
    raw_ = clock_;
    return clock_;
  }

  /// Checks a sampled (item, count) against the arrivals so far: the
  /// payload belongs to the item, the count is the brute-force forward
  /// count, and the item is active under the clamped clock.
  void Check(const Item& item, const CountPayload& payload) const {
    ASSERT_LT(item.index, items_.size());
    EXPECT_EQ(payload.value, item.value);
    EXPECT_EQ(payload.count, BruteForwardCount(items_, item.index))
        << "index " << item.index << " of " << items_.size();
    EXPECT_LT(clock_ - clamped_[item.index], t0_) << "expired sample";
  }

  bool empty() const { return items_.empty(); }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  Timestamp t0_;
  uint64_t domain_;
  Timestamp raw_ = 0;
  Timestamp clock_ = 0;
  std::vector<Item> items_;
  std::vector<Timestamp> clamped_;
};

TEST(TsForwardCountTest, CountsExactUnderClampGapsAndExpiry) {
  // Ragged chunks straddle expiry boundaries (t0 = 10 against 0-2 units
  // per arrival), regressions take the clamp path, and gaps expire some or
  // all of the window between chunks. Batch 0 is item-wise Observe.
  constexpr Timestamp kT0 = 10;
  for (uint64_t batch : {0u, 1u, 3u, 7u, 64u, 1024u}) {
    for (int trial = 0; trial < 60; ++trial) {
      ClampedStream stream(Rng::ForkSeed(7300 + batch, trial), kT0,
                           /*domain=*/4);
      auto unit = MakeUnit(kT0, Rng::ForkSeed(7400 + batch, trial));
      for (int step = 0; step < 25; ++step) {
        const uint64_t cap = batch == 0 ? 9 : 2 * batch + 2;
        const std::vector<Item> chunk =
            stream.Chunk(stream.rng().UniformIndex(cap));
        Feed(unit, chunk, batch);
        if (stream.rng().UniformIndex(4) == 0) {
          unit.AdvanceTime(stream.Gap());
        }
        if (auto s = unit.Sample()) {
          stream.Check(s->item, s->payload);
        }
      }
    }
  }
}

SinkSpec TsConfig(const char* name, Timestamp t0, uint64_t r,
                  double count_eps, uint64_t seed) {
  SinkSpec config;
  config.name = name;
  config.substrate = "bop-ts-single";
  config.window_t = t0;
  config.r = r;
  config.count_eps = count_eps;
  config.seed = seed;
  return config;
}

TEST(TsFkEstimatorTest, EveryUnitCountExactWithManyUnits) {
  // r > 1 through the sink table: every unit's count comes out of the one
  // backward pass the substrate shares across its units, so check all of
  // them, after every chunk, for both count-payload estimators.
  constexpr Timestamp kT0 = 12;
  constexpr uint64_t kUnits = 24;
  for (const char* name : {"ams-fk", "ccm-entropy"}) {
    SCOPED_TRACE(name);
    auto est =
        MakeEstimator(TsConfig(name, kT0, kUnits, 0.1, 31)).ValueOrDie();
    auto* fk = dynamic_cast<FkEstimator*>(est.get());
    auto* entropy = dynamic_cast<EntropyEstimator*>(est.get());
    ASSERT_TRUE(fk != nullptr || entropy != nullptr);
    // A wider domain: r x O(log n) candidates fill the count table with
    // dozens of distinct values, so probes collide.
    ClampedStream stream(41, kT0, /*domain=*/48);
    for (int step = 0; step < 300; ++step) {
      const uint64_t len = stream.rng().UniformIndex(40);
      const std::vector<Item> chunk = stream.Chunk(len);
      if (len % 3 == 0) {
        for (const Item& item : chunk) est->Observe(item);
      } else {
        est->ObserveBatch(chunk);
      }
      if (stream.rng().UniformIndex(5) == 0) est->AdvanceTime(stream.Gap());
      const auto check = [&](const Item& item, const CountPayload& payload) {
        stream.Check(item, payload);
      };
      const uint64_t live = fk != nullptr
                                ? fk->substrate().ForEachSample(check)
                                : entropy->substrate().ForEachSample(check);
      EXPECT_TRUE(live == 0 || live == kUnits) << "live units " << live;
    }
  }
}

TEST(TsFkEstimatorTest, CreateValidation) {
  EXPECT_FALSE(MakeEstimator(TsConfig("ams-fk", 0, 8, 0.1, 1)).ok());
  SinkSpec bad_moment = TsConfig("ams-fk", 8, 8, 0.1, 1);
  bad_moment.moment = 0;
  EXPECT_FALSE(MakeEstimator(bad_moment).ok());
  EXPECT_FALSE(MakeEstimator(TsConfig("ams-fk", 8, 0, 0.1, 1)).ok());
  EXPECT_FALSE(MakeEstimator(TsConfig("ams-fk", 8, 8, 0.0, 1)).ok());
  EXPECT_TRUE(MakeEstimator(TsConfig("ams-fk", 8, 8, 0.1, 1)).ok());
}

TEST(TsFkEstimatorTest, EmptyWindowEstimatesZero) {
  auto est = MakeEstimator(TsConfig("ams-fk", 5, 8, 0.1, 2)).ValueOrDie();
  EXPECT_DOUBLE_EQ(est->Estimate().value, 0.0);
  est->Observe(Item{1, 0, 0});
  est->AdvanceTime(100);
  EXPECT_DOUBLE_EQ(est->Estimate().value, 0.0);
}

TEST(TsFkEstimatorTest, F1TracksWindowSizeUnderBurst) {
  // F1 = n; with the AMS telescoping at moment 1 the per-unit estimate is
  // exactly the histogram's n-hat, so the error is the EH eps alone. The
  // bursty stream with AdvanceTime-only steps exercises expiry under the
  // clock, the satellite correctness requirement.
  SinkSpec config = TsConfig("ams-fk", 64, 4, 0.05, 3);
  config.moment = 1;
  auto est = MakeEstimator(config).ValueOrDie();
  Rng rng(4);
  uint64_t index = 0;
  std::deque<Timestamp> active;
  for (Timestamp t = 0; t < 300; ++t) {
    const uint64_t burst = rng.UniformIndex(4);  // 0..3: some steps empty
    for (uint64_t i = 0; i < burst; ++i) {
      est->Observe(Item{rng.UniformIndex(100), index++, t});
      active.push_back(t);
    }
    est->AdvanceTime(t);
    while (!active.empty() && t - active.front() >= 64) active.pop_front();
  }
  EstimateReport report = est->Estimate();
  EXPECT_DOUBLE_EQ(report.value, report.window_size);
  const double exact = static_cast<double>(active.size());
  EXPECT_NEAR(report.window_size / exact, 1.0, 0.06);
}

TEST(TsEntropyEstimatorTest, CreateValidation) {
  EXPECT_FALSE(MakeEstimator(TsConfig("ccm-entropy", 0, 8, 0.1, 1)).ok());
  EXPECT_FALSE(MakeEstimator(TsConfig("ccm-entropy", 8, 0, 0.1, 1)).ok());
  EXPECT_FALSE(MakeEstimator(TsConfig("ccm-entropy", 8, 8, 0.0, 1)).ok());
  EXPECT_TRUE(MakeEstimator(TsConfig("ccm-entropy", 8, 8, 0.1, 1)).ok());
}

TEST(TsEntropyEstimatorTest, ConstantStreamNearZero) {
  auto est =
      MakeEstimator(TsConfig("ccm-entropy", 64, 2000, 0.05, 2)).ValueOrDie();
  uint64_t index = 0;
  for (Timestamp t = 0; t < 200; ++t) {
    est->Observe(Item{7, index++, t});
    est->Observe(Item{7, index++, t});
  }
  EXPECT_NEAR(est->Estimate().value, 0.0, 0.25);
}

TEST(TsEntropyEstimatorTest, CloseToExactOnZipfWindow) {
  const Timestamp t0 = 512;
  auto est =
      MakeEstimator(TsConfig("ccm-entropy", t0, 2500, 0.05, 3)).ValueOrDie();
  auto gen =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=32,alpha=1", 4)
          .ValueOrDie();
  Rng rng(4);
  std::deque<std::pair<Timestamp, uint64_t>> window;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 3 * t0; ++t) {
    const uint64_t burst = 1 + rng.UniformIndex(3);
    for (uint64_t i = 0; i < burst; ++i) {
      const uint64_t v = gen->Take(1)[0].value;
      est->Observe(Item{v, index++, t});
      window.emplace_back(t, v);
    }
    est->AdvanceTime(t);
    while (!window.empty() && t - window.front().first >= t0) {
      window.pop_front();
    }
  }
  std::vector<uint64_t> values;
  for (const auto& [ts, v] : window) values.push_back(v);
  const double exact = ExactEntropy(values);
  EXPECT_NEAR(est->Estimate().value, exact, 0.15 * exact + 0.1);
}

TEST(TsFkEstimatorTest, F2CloseToExactOnSkewedWindow) {
  const Timestamp t0 = 512;
  auto est =
      MakeEstimator(TsConfig("ams-fk", t0, 1500, 0.05, 5)).ValueOrDie();
  auto gen =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=8,alpha=1.4", 6)
          .ValueOrDie();
  Rng rng(6);
  std::deque<std::pair<Timestamp, uint64_t>> window;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 3 * t0; ++t) {
    const uint64_t burst = 1 + rng.UniformIndex(3);
    for (uint64_t i = 0; i < burst; ++i) {
      const uint64_t v = gen->Take(1)[0].value;
      est->Observe(Item{v, index++, t});
      window.emplace_back(t, v);
    }
    est->AdvanceTime(t);
    while (!window.empty() && t - window.front().first >= t0) {
      window.pop_front();
    }
  }
  std::vector<uint64_t> values;
  for (const auto& [ts, v] : window) values.push_back(v);
  const double exact = ExactFrequencyMoment(values, 2);
  const double estimate = est->Estimate().value;
  EXPECT_NEAR(estimate / exact, 1.0, 0.25)
      << "estimate=" << estimate << " exact=" << exact;
}

TEST(WindowCountTest, TracksActiveCountUnderBurst) {
  // window-count over the DGIM substrate vs the exact-ts oracle on the
  // same bursty stream with AdvanceTime gaps: the oracle is exact, the
  // histogram within eps.
  SinkSpec config = TsConfig("window-count", 32, 1, 0.05, 7);
  auto dgim = MakeEstimator(config).ValueOrDie();
  config.substrate = "exact-ts";
  auto oracle = MakeEstimator(config).ValueOrDie();
  Rng rng(8);
  std::deque<Timestamp> active;
  uint64_t index = 0;
  for (Timestamp t = 0; t < 400; ++t) {
    const uint64_t burst = rng.UniformIndex(5);
    for (uint64_t i = 0; i < burst; ++i) {
      const Item item{rng.UniformIndex(10), index++, t};
      dgim->Observe(item);
      oracle->Observe(item);
      active.push_back(t);
    }
    dgim->AdvanceTime(t);
    oracle->AdvanceTime(t);
    while (!active.empty() && t - active.front() >= 32) active.pop_front();
    const double exact = static_cast<double>(active.size());
    EXPECT_DOUBLE_EQ(oracle->Estimate().value, exact);
    // eps-relative plus a small additive slack: the straddling bucket's
    // half-weight rounding costs up to ~1 element at tiny counts.
    EXPECT_NEAR(dgim->Estimate().value, exact,
                std::max(0.06 * exact, 1.5))
        << "t=" << t;
  }
}

}  // namespace
}  // namespace swsample
