// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Distributional equivalence of the timestamp samplers' batched fast
// paths. ObserveBatch on the ts family is NOT coin-for-coin identical to
// item-by-item Observe (the closed-form run append draws samples by index
// instead of replaying the merge cascade), so these tests check the
// guarantee that actually matters: over many seeded trials, the batched
// sample distribution is uniform over the active window and
// indistinguishable from the item path's.
//
// The shared stream is adversarial for the fast paths: two long
// same-timestamp runs (above the ExtendRun cutover, cut mid-run by the
// ragged batch size), bursty clock gaps that force partial and full
// expiry, and a short same-timestamp run below the cutover that must take
// the per-item merge-coin path.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "stat_check.h"
#include "stats/tests.h"
#include "test_sinks.h"

namespace swsample {
namespace {

constexpr Timestamp kT0 = 10;
constexpr uint64_t kActive = 16;       // items with ts > 30 - kT0
constexpr uint64_t kActiveStart = 48;  // index of the first active item

// 64 items; exactly the last 16 (ts > 20) are active at the final clock
// value 30. Runs of 20 at ts=0 and ts=7 exceed the batch-append cutover;
// the run of 5 at ts=21 stays below it; the 7->12->18 jumps are the
// bursty gaps that cross the expiry horizon.
std::vector<Item> MakeTsStream() {
  std::vector<Timestamp> ts;
  ts.insert(ts.end(), 20, 0);
  ts.insert(ts.end(), {2, 2, 4, 4, 6});
  ts.insert(ts.end(), 20, 7);
  ts.insert(ts.end(), {12, 18, 20});
  ts.insert(ts.end(),
            {21, 21, 21, 21, 21, 22, 25, 25, 25, 27, 28, 28, 29, 30, 30, 30});
  std::vector<Item> items;
  items.reserve(ts.size());
  for (uint64_t i = 0; i < ts.size(); ++i) {
    items.push_back(Item{i, i, ts[i]});
  }
  return items;
}

// Per-active-position sample counts over many trials; batch == 0 means
// item-by-item Observe. Counts every returned sample, so it works for
// k > 1 without-replacement samples too (each position is then included
// with probability k / kActive, still uniform across positions).
std::vector<uint64_t> TsPositionCounts(const char* name, uint64_t k,
                                       uint64_t batch, int trials,
                                       uint64_t seed) {
  const std::vector<Item> items = MakeTsStream();
  std::vector<uint64_t> counts(kActive, 0);
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.window_t = kT0;
    config.k = k;
    config.seed = seed + static_cast<uint64_t>(t);
    config.name = name;
    auto sampler = MakeSampler(config).ValueOrDie();
    if (batch == 0) {
      for (const Item& item : items) sampler->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < items.size(); pos += batch) {
        const uint64_t take = std::min<uint64_t>(batch, items.size() - pos);
        sampler->ObserveBatch(std::span<const Item>(items.data() + pos, take));
      }
    }
    for (const Item& sample : sampler->Sample()) {
      EXPECT_GE(sample.index, kActiveStart) << name << " sampled expired item";
      if (sample.index < kActiveStart) continue;
      ++counts[sample.index - kActiveStart];
    }
  }
  return counts;
}

void CheckBatchedUniform(const char* name, uint64_t batch) {
  auto counts = TsPositionCounts(name, /*k=*/1, batch, /*trials=*/30000,
                                 /*seed=*/2000);
  EXPECT_TRUE(IsUniform(counts, /*seed=*/2000))
      << name << " batch=" << batch;
}

// Ragged batches cut both long runs mid-run (boundaries at 17 and 34).
TEST(TsBatchTest, BatchedSingleUniform) {
  CheckBatchedUniform("bop-ts-single", 17);
}
TEST(TsBatchTest, BatchedSwrUniform) { CheckBatchedUniform("bop-ts-swr", 17); }
TEST(TsBatchTest, BatchedSworUniform) {
  CheckBatchedUniform("bop-ts-swor", 17);
}

// The whole stream in one call maximizes the closed-form append spans.
TEST(TsBatchTest, WholeStreamBatchUniform) {
  CheckBatchedUniform("bop-ts-single", 64);
  CheckBatchedUniform("bop-ts-swor", 64);
}

TEST(TsBatchTest, BatchMatchesObserveDistributionally) {
  const int trials = 30000;
  for (const char* name : {"bop-ts-single", "bop-ts-swr", "bop-ts-swor"}) {
    auto batched = TsPositionCounts(name, /*k=*/1, /*batch=*/17, trials,
                                    /*seed=*/4000);
    auto unbatched = TsPositionCounts(name, /*k=*/1, /*batch=*/0, trials,
                                      /*seed=*/6000);
    EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/4000)) << name;
  }
}

// k > 1 exercises TsSwor's unit-major delayed-delivery schedule (each
// unit i replays the batch shifted by i, with the prefix served from the
// pre-batch recent-items snapshot across the batch boundaries).
TEST(TsBatchTest, SworMultiSampleBatchMatchesObserve) {
  const int trials = 30000;
  auto batched = TsPositionCounts("bop-ts-swor", /*k=*/4, /*batch=*/17,
                                  trials, /*seed=*/8000);
  auto unbatched = TsPositionCounts("bop-ts-swor", /*k=*/4, /*batch=*/0,
                                    trials, /*seed=*/10000);
  EXPECT_TRUE(SameDistribution(batched, unbatched, /*seed=*/8000));
  EXPECT_TRUE(IsUniform(batched, /*seed=*/8000));
}

}  // namespace
}  // namespace swsample
