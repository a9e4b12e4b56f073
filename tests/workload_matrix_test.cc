// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The full sampler x estimator matrix driven through every workload
// generator (stream/workload.h), checked against the exact oracles:
//
//  * chi-square uniformity of every ts/seq sampler's position marginals
//    under Zipf, Poisson-burst, b-model, skewed/out-of-order, duplicate,
//    and adversarial-churn streams;
//  * batch-vs-item and sharded-vs-single equivalence per workload;
//  * estimator accuracy vs exact window aggregates per workload;
//  * checkpoint -> kill -> resume bit-equality with the cut mid-burst;
//  * trace record/replay round-trip and bit-identical replay state;
//  * the out-of-order clamping contract (core/api.h), single and batched.
//
// Trial counts are trimmed by default so the suite stays fast in the
// normal CI jobs; set SWSAMPLE_STRESS=1 (the `stress`-labeled ctest entry
// does) for the full-resolution run.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "baseline/exact_window.h"
#include "core/ts_single.h"
#include "stat_check.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/serial.h"

namespace swsample {
namespace {

bool Stress() { return std::getenv("SWSAMPLE_STRESS") != nullptr; }
int UniformTrials() { return Stress() ? 20000 : 4000; }

constexpr Timestamp kT0 = 24;    // ts window for every matrix sampler
constexpr uint64_t kSeqN = 64;   // seq window for every matrix sampler
constexpr uint64_t kBatch = 17;  // ragged batch: cuts plateaus mid-run

struct NamedWorkload {
  const char* name;
  const char* spec;
  bool skewed;  // emits out-of-order timestamps
};

// Every generator family and modifier, with a domain small enough for
// exact per-value aggregates. Churn's t matches kT0 so its gaps land on
// the samplers' expiry horizon.
const NamedWorkload kWorkloads[] = {
    {"zipf", "constant@zipf,rate=8,domain=64,alpha=1.2", false},
    {"poisson", "poisson@uniform,lambda=6,domain=64", false},
    {"bmodel", "bmodel@zipf,bias=0.8,levels=8,volume=2048,domain=64", false},
    {"skew", "poisson@uniform,lambda=6,domain=64,skew=12", true},
    {"dup", "constant@zipf,rate=8,domain=64,alpha=1.2,dup=0.25,duplag=32",
     false},
    {"churn", "churn,t=24,domain=64", false},
    {"churn-skew", "churn,t=24,domain=64,skew=8", true},
};

// One deterministic stream per (workload, seed), extended until the final
// ts window holds enough items for a meaningful chi-square (churn's t+1
// gaps can otherwise end the stream right after a full expiry).
std::vector<Item> MakeStream(const NamedWorkload& w, uint64_t seed) {
  auto gen = WorkloadGenerator::Create(w.spec, seed).ValueOrDie();
  std::vector<Item> items;
  gen->Generate(512, &items);
  auto oracle = ExactWindow::CreateTimestamp(kT0, 1, true, 1).ValueOrDie();
  oracle->ObserveBatch(items);
  while (oracle->contents().size() < 16 && items.size() < 4096) {
    std::vector<Item> more;
    gen->Generate(64, &more);
    oracle->ObserveBatch(more);
    items.insert(items.end(), more.begin(), more.end());
  }
  EXPECT_GE(oracle->contents().size(), 16u) << w.name;
  return items;
}

// Exact active window of `items` under the ts model (clamped identically
// to the samplers; see the out-of-order contract in core/api.h).
std::deque<Item> TsOracleWindow(std::span<const Item> items) {
  auto oracle = ExactWindow::CreateTimestamp(kT0, 1, true, 1).ValueOrDie();
  oracle->ObserveBatch(items);
  return oracle->contents();
}

// Index -> window-position map of an oracle window (insertion order).
std::map<StreamIndex, uint64_t> PositionMap(const std::deque<Item>& window) {
  std::map<StreamIndex, uint64_t> position;
  for (const Item& item : window) {
    const uint64_t pos = position.size();
    position[item.index] = pos;
  }
  return position;
}

Result<Sink> MakeSinkFull(const std::string& spec_text, uint64_t seed) {
  auto spec = ParseSinkSpec(spec_text);
  if (!spec.ok()) return spec.status();
  spec.value().seed = seed;
  return CreateSink(spec.value());
}

// Position counts of a sampler's Sample() marginals over many seeded
// trials against the index->position map of the exact active window.
std::vector<uint64_t> SamplerPositionCounts(const std::string& sink_spec,
                                            std::span<const Item> items,
                                            const std::map<StreamIndex,
                                                           uint64_t>& position,
                                            uint64_t cells, int trials,
                                            uint64_t seed) {
  std::vector<uint64_t> counts(cells, 0);
  for (int t = 0; t < trials; ++t) {
    auto sink = MakeSinkFull(sink_spec, seed + static_cast<uint64_t>(t))
                    .ValueOrDie();
    for (size_t i = 0; i < items.size(); i += kBatch) {
      const size_t len = std::min<size_t>(kBatch, items.size() - i);
      sink.sink->ObserveBatch(std::span<const Item>(items).subspan(i, len));
    }
    for (const Item& s : sink.sampler->Sample()) {
      auto it = position.find(s.index);
      EXPECT_NE(it, position.end())
          << sink_spec << ": sampled index " << s.index
          << " is not in the exact active window";
      if (it == position.end()) continue;
      ++counts[it->second];
    }
  }
  return counts;
}

TEST(WorkloadSpecTest, RoundTripsThroughFormat) {
  for (const NamedWorkload& w : kWorkloads) {
    auto spec = ParseWorkloadSpec(w.spec).ValueOrDie();
    const std::string text = FormatWorkloadSpec(spec);
    auto back = ParseWorkloadSpec(text).ValueOrDie();
    EXPECT_EQ(FormatWorkloadSpec(back), text) << w.spec;
    EXPECT_EQ(back.arrivals, spec.arrivals);
    EXPECT_EQ(back.values, spec.values);
    EXPECT_EQ(back.domain, spec.domain);
    EXPECT_EQ(back.skew, spec.skew);
  }
}

TEST(WorkloadSpecTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseWorkloadSpec("steady").ok());
  EXPECT_FALSE(ParseWorkloadSpec("constant@gauss").ok());
  EXPECT_FALSE(ParseWorkloadSpec("constant,rate").ok());
  EXPECT_FALSE(ParseWorkloadSpec("constant,bogus=1").ok());
  EXPECT_FALSE(WorkloadGenerator::Create("constant,rate=0", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("churn,t=1", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("bmodel,bias=0.4", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("poisson,lambda=0", 1).ok());
  EXPECT_FALSE(WorkloadGenerator::Create("constant,dup=1.5", 1).ok());
}

TEST(WorkloadGeneratorTest, IsDeterministicPerSeed) {
  for (const NamedWorkload& w : kWorkloads) {
    auto a = WorkloadGenerator::Create(w.spec, 42).ValueOrDie()->Take(400);
    auto b = WorkloadGenerator::Create(w.spec, 42).ValueOrDie()->Take(400);
    EXPECT_EQ(a, b) << w.name;
    auto c = WorkloadGenerator::Create(w.spec, 43).ValueOrDie()->Take(400);
    EXPECT_NE(a, c) << w.name << ": different seeds produced equal streams";
    // Indices are always consecutive from 0.
    for (uint64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].index, i);
  }
}

TEST(WorkloadGeneratorTest, ChurnEmitsCutoverPlateausAndHorizonGaps) {
  auto items =
      WorkloadGenerator::Create("churn,t=24", 7).ValueOrDie()->Take(2000);
  std::set<uint64_t> plateau_lengths;
  std::set<Timestamp> gaps;
  uint64_t run = 1;
  for (size_t i = 1; i < items.size(); ++i) {
    if (items[i].timestamp == items[i - 1].timestamp) {
      ++run;
    } else {
      plateau_lengths.insert(run);
      gaps.insert(items[i].timestamp - items[i - 1].timestamp);
      run = 1;
    }
  }
  // The ExtendRun-cutover straddle {15,16,17}, the power-of-two cascade
  // plateau, and all three expiry-horizon edges must all occur.
  for (uint64_t p : {15u, 16u, 17u, 64u}) {
    EXPECT_TRUE(plateau_lengths.count(p)) << "missing plateau " << p;
  }
  for (Timestamp g : {Timestamp{23}, Timestamp{24}, Timestamp{25}}) {
    EXPECT_TRUE(gaps.count(g)) << "missing gap " << g;
  }
}

TEST(WorkloadGeneratorTest, SkewProducesGenuineDisorderAndClampRestoresIt) {
  auto items = WorkloadGenerator::Create("poisson@uniform,lambda=6,skew=12", 3)
                   .ValueOrDie()
                   ->Take(800);
  EXPECT_FALSE(IsTimestampOrdered(items, 0));
  std::vector<Item> clamped;
  ClampTimestamps(items, 0, &clamped);
  EXPECT_TRUE(IsTimestampOrdered(clamped, 0));
  ASSERT_EQ(clamped.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(clamped[i].value, items[i].value);
    EXPECT_GE(clamped[i].timestamp, items[i].timestamp);
  }
}

// --- the sampler matrix ----------------------------------------------------

TEST(WorkloadMatrixTest, TsSamplersUniformUnderEveryWorkload) {
  const char* samplers[] = {"bop-ts-single,t=24", "bop-ts-swr,t=24,k=2",
                            "bop-ts-swor,t=24,k=4"};
  for (const NamedWorkload& w : kWorkloads) {
    const auto items = MakeStream(w, /*seed=*/500);
    const auto window = TsOracleWindow(items);
    const auto position = PositionMap(window);
    for (const char* s : samplers) {
      const uint64_t base = std::hash<std::string>{}(std::string(w.name) + s);
      auto counts = SamplerPositionCounts(s, items, position, window.size(),
                                          UniformTrials(), base);
      EXPECT_TRUE(IsUniform(counts, base)) << w.name << " x " << s;
    }
  }
}

TEST(WorkloadMatrixTest, SeqSamplersUniformUnderEveryWorkload) {
  const char* samplers[] = {"bop-seq-single,n=64", "bop-seq-swr,n=64,k=2",
                            "bop-seq-swor,n=64,k=4"};
  for (const NamedWorkload& w : kWorkloads) {
    const auto items = MakeStream(w, /*seed=*/600);
    ASSERT_GE(items.size(), kSeqN);
    std::map<StreamIndex, uint64_t> position;
    for (uint64_t i = 0; i < kSeqN; ++i) {
      position[items.size() - kSeqN + i] = i;
    }
    for (const char* s : samplers) {
      const uint64_t base = std::hash<std::string>{}(std::string(w.name) + s);
      auto counts = SamplerPositionCounts(s, items, position, kSeqN,
                                          UniformTrials(), base);
      EXPECT_TRUE(IsUniform(counts, base)) << w.name << " x " << s;
    }
  }
}

TEST(WorkloadMatrixTest, BatchMatchesItemUnderEveryWorkload) {
  const int trials = UniformTrials();
  for (const NamedWorkload& w : kWorkloads) {
    const auto items = MakeStream(w, /*seed=*/700);
    const auto window = TsOracleWindow(items);
    const auto position = PositionMap(window);
    // Batched path (ragged kBatch chunks) vs item-at-a-time path.
    auto batched = SamplerPositionCounts("bop-ts-single,t=24", items, position,
                                         window.size(), trials, 11000);
    std::vector<uint64_t> unbatched(window.size(), 0);
    for (int t = 0; t < trials; ++t) {
      auto sink = MakeSinkFull("bop-ts-single,t=24",
                               13000 + static_cast<uint64_t>(t))
                      .ValueOrDie();
      for (const Item& item : items) sink.sink->Observe(item);
      for (const Item& s : sink.sampler->Sample()) {
        auto it = position.find(s.index);
        ASSERT_NE(it, position.end()) << w.name;
        ++unbatched[it->second];
      }
    }
    EXPECT_TRUE(SameDistribution(batched, unbatched, 11000)) << w.name;
  }
}

TEST(WorkloadMatrixTest, ShardedMatchesSingleUnderEveryWorkload) {
  // Key-hash sharding gives each shard its own clamping clock, so the
  // equivalence claim (union of shard windows == single window after all
  // clocks reach the final timestamp) only holds for monotone workloads.
  ShardedStreamDriver::Options options;
  options.threads = 3;
  options.partition = ShardPartition::kKeyHash;
  const ShardedStreamDriver driver(options);
  for (const NamedWorkload& w : kWorkloads) {
    if (w.skewed) continue;
    const auto items = MakeStream(w, /*seed=*/800);
    const Timestamp end_clock = items.back().timestamp;

    std::vector<std::unique_ptr<ExactWindow>> shards;
    std::vector<StreamSink*> shard_ptrs;
    for (int s = 0; s < 3; ++s) {
      shards.push_back(
          ExactWindow::CreateTimestamp(kT0, 1, true, 90 + s).ValueOrDie());
      shard_ptrs.push_back(shards.back().get());
    }
    ASSERT_TRUE(driver.Drive(items, shard_ptrs).ok()) << w.name;

    auto single = ExactWindow::CreateTimestamp(kT0, 1, true, 99).ValueOrDie();
    single->ObserveBatch(items);

    // The driver re-indexes each shard's stream locally (sequence windows
    // shard as window_n / shards), so global indices are not preserved;
    // the union claim is over (value, timestamp) multisets.
    std::vector<std::pair<uint64_t, Timestamp>> merged;
    for (int s = 0; s < 3; ++s) {
      // A shard whose last item is old still holds expired elements; move
      // every shard clock to the stream's final timestamp first.
      shards[s]->AdvanceTime(end_clock);
      for (const Item& item : shards[s]->contents()) {
        EXPECT_EQ(ShardOfKey(item.value, 3), static_cast<uint64_t>(s));
        merged.emplace_back(item.value, item.timestamp);
      }
    }
    std::vector<std::pair<uint64_t, Timestamp>> expect;
    for (const Item& item : single->contents()) {
      expect.emplace_back(item.value, item.timestamp);
    }
    std::sort(merged.begin(), merged.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(merged, expect) << w.name;
  }
}

// --- the estimator matrix --------------------------------------------------

TEST(WorkloadMatrixTest, EstimatorsTrackExactAggregatesUnderEveryWorkload) {
  for (const NamedWorkload& w : kWorkloads) {
    const auto items = MakeStream(w, /*seed=*/900);
    const auto window = TsOracleWindow(items);
    const double n = static_cast<double>(window.size());
    std::map<uint64_t, double> freq;
    std::vector<double> values;
    for (const Item& item : window) {
      freq[item.value] += 1.0;
      values.push_back(static_cast<double>(item.value));
    }
    std::sort(values.begin(), values.end());
    double exact_f2 = 0, exact_h = 0;
    for (const auto& [v, c] : freq) {
      exact_f2 += c * c;
      const double p = c / n;
      exact_h -= p * std::log2(p);
    }

    auto estimate = [&](const std::string& spec) {
      auto sink = MakeSinkFull(spec, /*seed=*/31).ValueOrDie();
      for (size_t i = 0; i < items.size(); i += kBatch) {
        const size_t len = std::min<size_t>(kBatch, items.size() - i);
        sink.sink->ObserveBatch(std::span<const Item>(items).subspan(i, len));
      }
      return sink.estimator->Estimate();
    };

    // Exact substrate: sampling marginals and window size are exact, so
    // only the r-sample estimation noise remains (seeded, deterministic).
    auto count = estimate("window-count@exact-ts,t=24");
    EXPECT_NEAR(count.value, n, 0.01 * n + 1e-9) << w.name;

    auto f2 = estimate("ams-fk@exact-ts,t=24,r=512");
    EXPECT_NEAR(f2.value, exact_f2, 0.5 * exact_f2) << w.name;

    auto h = estimate("ccm-entropy@exact-ts,t=24,r=512");
    EXPECT_NEAR(h.value, exact_h, std::max(1.5, 0.5 * exact_h)) << w.name;

    // Theorem 5.1 substrate (paper sampler under the estimator).
    auto f2_ts = estimate("ams-fk@bop-ts-single,t=24,r=512");
    EXPECT_NEAR(f2_ts.value, exact_f2, 0.6 * exact_f2) << w.name;

    // Quantile: the estimate must land inside a generous rank band.
    auto q = estimate("dkw-quantile@exact-ts,t=24,r=512");
    const double lo = values[static_cast<size_t>(0.25 * (n - 1))];
    const double hi = values[static_cast<size_t>(0.75 * (n - 1))];
    EXPECT_GE(q.value, lo) << w.name;
    EXPECT_LE(q.value, hi) << w.name;

    // Recency-weighted mean (sequence model: biased-mean's substrates are
    // the seq samplers): any convex weighting of the last kSeqN values
    // stays inside their range.
    ASSERT_GE(items.size(), kSeqN) << w.name;
    double seq_min = 1e300, seq_max = -1e300;
    for (size_t i = items.size() - kSeqN; i < items.size(); ++i) {
      const double v = static_cast<double>(items[i].value);
      seq_min = std::min(seq_min, v);
      seq_max = std::max(seq_max, v);
    }
    auto mean = estimate("biased-mean,n=64,r=8");
    EXPECT_GE(mean.value, seq_min) << w.name;
    EXPECT_LE(mean.value, seq_max) << w.name;

    // Triangles: values are keys, not encoded edges — run-sanity only.
    auto tri = estimate("buriol-triangles@exact-ts,t=24,r=64,vertices=64");
    EXPECT_GE(tri.value, 0.0) << w.name;
  }
}

// --- checkpoint / trace ----------------------------------------------------

TEST(WorkloadMatrixTest, CheckpointResumeMidBurstIsBitIdentical) {
  const auto items = MakeStream(kWorkloads[5], /*seed=*/1000);  // churn
  // Cut at a batch boundary that lands inside a same-timestamp plateau
  // ("mid-burst"): both neighbors of the cut share a timestamp.
  size_t cut = 0;
  for (size_t c = kBatch; c + kBatch < items.size(); c += kBatch) {
    if (items[c - 1].timestamp == items[c].timestamp) {
      cut = c;
      break;
    }
  }
  ASSERT_GT(cut, 0u) << "no batch boundary falls inside a plateau";

  for (const char* spec_text :
       {"bop-ts-single,t=24", "bop-ts-swor,t=24,k=4",
        "ams-fk@bop-ts-single,t=24,r=64"}) {
    auto spec = ParseSinkSpec(spec_text).ValueOrDie();
    spec.seed = 77;
    auto full = CreateSink(spec).ValueOrDie();
    auto interrupted = CreateSink(spec).ValueOrDie();

    auto feed = [&](StreamSink& sink, size_t from, size_t to) {
      for (size_t i = from; i < to; i += kBatch) {
        const size_t len = std::min<size_t>(kBatch, to - i);
        sink.ObserveBatch(std::span<const Item>(items).subspan(i, len));
      }
    };
    feed(*full.sink, 0, items.size());

    feed(*interrupted.sink, 0, cut);
    auto blob = SaveSink(*interrupted.sink, spec).ValueOrDie();
    interrupted = Sink{};  // "kill" the original
    auto resumed = RestoreSink(blob).ValueOrDie();
    feed(*resumed.sink.sink, cut, items.size());

    EXPECT_EQ(SaveSink(*full.sink, spec).ValueOrDie(),
              SaveSink(*resumed.sink.sink, resumed.spec).ValueOrDie())
        << spec_text;
  }
}

TEST(WorkloadMatrixTest, TraceRoundTripsAndReplaysBitIdentically) {
  const auto items = MakeStream(kWorkloads[2], /*seed=*/1100);  // bmodel
  const std::string path = ::testing::TempDir() + "/workload.trace";
  ASSERT_TRUE(WriteTrace(path, items).ok());
  auto back = ReadTrace(path).ValueOrDie();
  ASSERT_EQ(back.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(back[i], items[i]) << "at " << i;
  }

  StreamDriver::Options options;
  options.batch_size = kBatch;
  const StreamDriver driver(options);
  auto spec = ParseSinkSpec("bop-ts-single,t=24").ValueOrDie();
  spec.seed = 5;
  auto direct = CreateSink(spec).ValueOrDie();
  driver.Drive(items, *direct.sink);
  auto replayed = CreateSink(spec).ValueOrDie();
  auto report = driver.Drive(back, *replayed.sink);
  EXPECT_EQ(report.items, items.size());
  EXPECT_EQ(SaveSink(*direct.sink, spec).ValueOrDie(),
            SaveSink(*replayed.sink, spec).ValueOrDie());

  // Sharded replay: same shard states as driving the items directly.
  ShardedStreamDriver::Options sharded_options;
  sharded_options.threads = 2;
  sharded_options.partition = ShardPartition::kKeyHash;
  const ShardedStreamDriver sharded(sharded_options);
  auto mk_shards = [&spec]() {
    std::vector<Sink> shards;
    for (int s = 0; s < 2; ++s) {
      auto shard_spec = spec;
      shard_spec.seed = 50 + static_cast<uint64_t>(s);
      shards.push_back(CreateSink(shard_spec).ValueOrDie());
    }
    return shards;
  };
  auto shards_a = mk_shards();
  auto shards_b = mk_shards();
  std::vector<StreamSink*> ptrs_a, ptrs_b;
  for (auto& s : shards_a) ptrs_a.push_back(s.sink.get());
  for (auto& s : shards_b) ptrs_b.push_back(s.sink.get());
  ASSERT_TRUE(sharded.Drive(items, ptrs_a).ok());
  ASSERT_TRUE(sharded.Drive(back, ptrs_b).ok());
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(SaveSink(*shards_a[s].sink, spec).ValueOrDie(),
              SaveSink(*shards_b[s].sink, spec).ValueOrDie())
        << "shard " << s;
  }
}

TEST(WorkloadMatrixTest, ReadTraceRejectsCorruption) {
  const std::string path = ::testing::TempDir() + "/corrupt.trace";
  auto items = WorkloadGenerator::Create("constant", 1).ValueOrDie()->Take(50);
  ASSERT_TRUE(WriteTrace(path, items).ok());
  // Bad magic.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fputc('X', f);
    std::fclose(f);
    EXPECT_FALSE(ReadTrace(path).ok());
  }
  // Truncation.
  ASSERT_TRUE(WriteTrace(path, items).ok());
  {
    auto full = ReadTrace(path).ValueOrDie();
    ASSERT_EQ(full.size(), items.size());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_TRUE(::truncate(path.c_str(), size - 3) == 0);
    EXPECT_FALSE(ReadTrace(path).ok());
  }
}

// --- the out-of-order contract ---------------------------------------------

const char* kTsSinkSpecs[] = {
    "bop-ts-single,t=24",       "bop-ts-swr,t=24,k=2",
    "bop-ts-swor,t=24,k=2",     "exact-ts,t=24",
    "bdm-priority,t=24,k=2",    "gl-bounded-priority,t=24,k=2",
};

TEST(OutOfOrderContractTest, SingleObserveClampsLikeNormalizedStream) {
  const auto skewed = MakeStream(kWorkloads[3], /*seed=*/1200);  // skew
  ASSERT_FALSE(IsTimestampOrdered(skewed, 0));
  std::vector<Item> clamped;
  ClampTimestamps(skewed, 0, &clamped);
  for (const char* spec_text : kTsSinkSpecs) {
    auto spec = ParseSinkSpec(spec_text).ValueOrDie();
    spec.seed = 21;
    auto raw = CreateSink(spec).ValueOrDie();
    auto normalized = CreateSink(spec).ValueOrDie();
    for (const Item& item : skewed) raw.sink->Observe(item);
    for (const Item& item : clamped) normalized.sink->Observe(item);
    EXPECT_EQ(SaveSink(*raw.sink, spec).ValueOrDie(),
              SaveSink(*normalized.sink, spec).ValueOrDie())
        << spec_text;
  }
}

TEST(OutOfOrderContractTest, BatchedObserveClampsLikeNormalizedStream) {
  const auto skewed = MakeStream(kWorkloads[3], /*seed=*/1300);
  ASSERT_FALSE(IsTimestampOrdered(skewed, 0));
  std::vector<Item> clamped;
  ClampTimestamps(skewed, 0, &clamped);
  for (const char* spec_text : kTsSinkSpecs) {
    auto spec = ParseSinkSpec(spec_text).ValueOrDie();
    spec.seed = 22;
    auto raw = CreateSink(spec).ValueOrDie();
    auto normalized = CreateSink(spec).ValueOrDie();
    for (size_t i = 0; i < skewed.size(); i += kBatch) {
      const size_t len = std::min<size_t>(kBatch, skewed.size() - i);
      raw.sink->ObserveBatch(std::span<const Item>(skewed).subspan(i, len));
      normalized.sink->ObserveBatch(
          std::span<const Item>(clamped).subspan(i, len));
    }
    EXPECT_EQ(SaveSink(*raw.sink, spec).ValueOrDie(),
              SaveSink(*normalized.sink, spec).ValueOrDie())
        << spec_text;
  }
}

TEST(OutOfOrderContractTest, AdvanceTimeRegressionIsANoOp) {
  auto sampler = TsSingleSampler::Create(10, 7).ValueOrDie();
  for (uint64_t i = 0; i < 20; ++i) {
    sampler.Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  BinaryWriter before;
  sampler.SaveState(&before);
  sampler.AdvanceTime(3);  // regression: must not move the clock or expire
  BinaryWriter after;
  sampler.SaveState(&after);
  EXPECT_EQ(before.str(), after.str());
  EXPECT_EQ(sampler.now(), 19);

  auto exact = ExactWindow::CreateTimestamp(10, 1, true, 1).ValueOrDie();
  for (uint64_t i = 0; i < 20; ++i) {
    exact->Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  const size_t active = exact->contents().size();
  exact->AdvanceTime(0);
  EXPECT_EQ(exact->contents().size(), active);
}

TEST(OutOfOrderContractTest, SkewedSamplesStayUniformOverClampedWindow) {
  // End-to-end: under a skewed workload the sampler must be uniform over
  // the CLAMPED window (which is what the oracle buffers too).
  const auto items = MakeStream(kWorkloads[3], /*seed=*/1400);
  const auto window = TsOracleWindow(items);
  const auto position = PositionMap(window);
  auto counts =
      SamplerPositionCounts("bop-ts-single,t=24", items, position,
                            window.size(), UniformTrials(), 15000);
  EXPECT_TRUE(IsUniform(counts, 15000));
}

}  // namespace
}  // namespace swsample
