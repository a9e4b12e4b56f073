// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tests for the unified SinkSpec construction API (apps/sink_spec.h):
// (1) the spec-string grammar parses and FormatSinkSpec round-trips;
// (2) CreateSink constructs every registered sampler AND estimator name
// through the one factory; (3) ShardSinkSpec is the single shard
// derivation (window split, seed fork, bias-level split, divisibility
// errors); (4) SaveSink/RestoreSink round-trips both kinds bit-exactly;
// (5) the typed pointer adaptors reject mixed/mismatched vectors.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/sink_spec.h"
#include "test_sinks.h"
#include "util/rng.h"

namespace swsample {
namespace {

Item MakeItem(uint64_t i) {
  return Item{i % 257, i, static_cast<Timestamp>(i)};
}

TEST(SinkSpecParseTest, ParsesSamplerSpecWithFields) {
  auto spec =
      ParseSinkSpec("bop-seq-swor,n=65536,k=64,seed=7").ValueOrDie();
  EXPECT_EQ(spec.name, "bop-seq-swor");
  EXPECT_EQ(spec.substrate, "");
  EXPECT_EQ(spec.window_n, 65536u);
  EXPECT_EQ(spec.k, 64u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(SinkKindOf(spec.name).ValueOrDie(), SinkKind::kSampler);
  EXPECT_EQ(SinkWindowModel(spec).ValueOrDie(), WindowModel::kSequence);
}

TEST(SinkSpecParseTest, ParsesEstimatorSpecWithSubstrate) {
  auto spec =
      ParseSinkSpec("ams-fk@bop-ts-swr,t=1000,r=256,moment=3").ValueOrDie();
  EXPECT_EQ(spec.name, "ams-fk");
  EXPECT_EQ(spec.substrate, "bop-ts-swr");
  EXPECT_EQ(spec.window_t, 1000);
  EXPECT_EQ(spec.r, 256u);
  EXPECT_EQ(spec.moment, 3u);
  EXPECT_EQ(SinkKindOf(spec.name).ValueOrDie(), SinkKind::kEstimator);
  EXPECT_EQ(SinkWindowModel(spec).ValueOrDie(), WindowModel::kTimestamp);
}

TEST(SinkSpecParseTest, ParsesBiasLevelsAndFloatKeys) {
  auto spec =
      ParseSinkSpec("biased-mean,t=4096,bias=1024:0.5+4096:0.5,eps=0.1,q=0.9")
          .ValueOrDie();
  ASSERT_EQ(spec.bias_levels.size(), 2u);
  EXPECT_EQ(spec.bias_levels[0].window, 1024);
  EXPECT_DOUBLE_EQ(spec.bias_levels[0].weight, 0.5);
  EXPECT_EQ(spec.bias_levels[1].window, 4096);
  EXPECT_DOUBLE_EQ(spec.count_eps, 0.1);
  EXPECT_DOUBLE_EQ(spec.q, 0.9);
}

TEST(SinkSpecParseTest, FormatRoundTripsThroughParse) {
  const char* inputs[] = {
      "bop-seq-swor,n=65536,k=64,seed=7",
      "bop-ts-single,t=100",
      "ams-fk@bop-ts-swr,t=1000,r=256,moment=3",
      "biased-mean,t=4096,bias=1024:0.25+4096:0.75",
      "exact-seq,n=32,k=4,wr=0",
      "dkw-quantile,t=500,r=128,q=0.95",
  };
  for (const char* input : inputs) {
    auto spec = ParseSinkSpec(input).ValueOrDie();
    const std::string canonical = FormatSinkSpec(spec);
    auto reparsed = ParseSinkSpec(canonical);
    ASSERT_TRUE(reparsed.ok())
        << input << " -> " << canonical << ": "
        << reparsed.status().ToString();
    EXPECT_EQ(FormatSinkSpec(reparsed.value()), canonical) << input;
  }
}

TEST(SinkSpecParseTest, RejectsBadInput) {
  // Unknown name lists the registered set.
  auto unknown = ParseSinkSpec("no-such-sink,n=16");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("bop-seq-swor"),
            std::string::npos);
  // Samplers take no substrate.
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor@exact-seq,n=16").ok());
  // Unknown key, malformed number, malformed bias level.
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=16,banana=1").ok());
  EXPECT_FALSE(ParseSinkSpec("bop-seq-swor,n=16x").ok());
  EXPECT_FALSE(ParseSinkSpec("biased-mean,t=64,bias=64").ok());
  EXPECT_FALSE(ParseSinkSpec("").ok());
}

TEST(SinkSpecFactoryTest, ConstructsEveryRegisteredSampler) {
  for (const SinkInfo& reg : RegisteredSinks(SinkKind::kSampler)) {
    SinkSpec spec;
    spec.name = reg.name;
    spec.window_n = 256;
    spec.window_t = 256;
    spec.k = reg.single_sample ? 1 : 4;
    spec.seed = 11;
    auto sink = CreateSink(spec);
    ASSERT_TRUE(sink.ok()) << reg.name << ": " << sink.status().ToString();
    ASSERT_NE(sink.value().sampler, nullptr) << reg.name;
    EXPECT_EQ(sink.value().estimator, nullptr) << reg.name;
    EXPECT_EQ(sink.value().kind(), SinkKind::kSampler);
    EXPECT_STREQ(sink.value().sink->name(), reg.name);
  }
}

TEST(SinkSpecFactoryTest, ConstructsEveryRegisteredEstimator) {
  for (const SinkInfo& reg : RegisteredSinks(SinkKind::kEstimator)) {
    SinkSpec spec;
    spec.name = reg.name;
    spec.window_n = 256;
    spec.window_t = 256;
    spec.r = 8;
    spec.num_vertices = 32;
    spec.seed = 11;
    auto sink = CreateSink(spec);
    ASSERT_TRUE(sink.ok()) << reg.name << ": " << sink.status().ToString();
    ASSERT_NE(sink.value().estimator, nullptr) << reg.name;
    EXPECT_EQ(sink.value().sampler, nullptr) << reg.name;
    EXPECT_EQ(sink.value().kind(), SinkKind::kEstimator);
    EXPECT_STREQ(sink.value().sink->name(), reg.name);
    // An estimator row's model is its default substrate's.
    EXPECT_EQ(reg.model, FindSink(reg.default_substrate)->model) << reg.name;
    EXPECT_EQ(reg.model, SinkWindowModel(spec).ValueOrDie()) << reg.name;
  }
}

TEST(SinkSpecFactoryTest, RejectsIncompatibleSubstrate) {
  SinkSpec spec;
  spec.name = "buriol-triangles";
  spec.substrate = "bdm-chain";  // not in its substrate list
  spec.window_n = 256;
  spec.r = 8;
  spec.num_vertices = 32;
  EXPECT_FALSE(CreateSink(spec).ok());
}

TEST(SinkSpecShardTest, SplitsSequenceWindowsAndForksSeeds) {
  SinkSpec spec;
  spec.name = "bop-seq-swr";
  spec.window_n = 4096;
  spec.k = 8;
  spec.seed = 5;

  auto shard2 = ShardSinkSpec(spec, 2, 4).ValueOrDie();
  EXPECT_EQ(shard2.window_n, 1024u);
  EXPECT_EQ(shard2.seed, Rng::ForkSeed(5, 2));
  EXPECT_EQ(shard2.name, spec.name);

  // Indivisible and too-small windows are rejected.
  spec.window_n = 4098;
  EXPECT_FALSE(ShardSinkSpec(spec, 0, 4).ok());
  spec.window_n = 2;
  EXPECT_FALSE(ShardSinkSpec(spec, 0, 4).ok());
}

TEST(SinkSpecShardTest, TimestampWindowsPassThroughUnchanged) {
  SinkSpec spec;
  spec.name = "ams-fk";
  spec.substrate = "bop-ts-single";
  spec.window_t = 1000;
  spec.r = 16;
  spec.seed = 9;
  auto shard = ShardSinkSpec(spec, 3, 4).ValueOrDie();
  EXPECT_EQ(shard.window_t, 1000);
  EXPECT_EQ(shard.seed, Rng::ForkSeed(9, 3));
}

TEST(SinkSpecShardTest, SplitsBiasLevelWindows) {
  auto spec =
      ParseSinkSpec("biased-mean,n=4096,bias=1024:0.5+4096:0.5").ValueOrDie();
  auto shard = ShardSinkSpec(spec, 1, 4).ValueOrDie();
  ASSERT_EQ(shard.bias_levels.size(), 2u);
  EXPECT_EQ(shard.bias_levels[0].window, 256);
  EXPECT_EQ(shard.bias_levels[1].window, 1024);
  // A bias window that does not divide is rejected.
  spec.bias_levels[0].window = 1023;
  EXPECT_FALSE(ShardSinkSpec(spec, 1, 4).ok());
}

TEST(SinkSpecShardTest, CreateShardedSinksBuildsReplicas) {
  auto spec = ParseSinkSpec("bop-seq-swor,n=4096,k=8,seed=5").ValueOrDie();
  auto replicas = CreateShardedSinks(spec, 4).ValueOrDie();
  ASSERT_EQ(replicas.size(), 4u);
  auto sinks = SinkPointers(replicas);
  EXPECT_EQ(sinks.size(), 4u);
  auto samplers = SamplerPointers(replicas).ValueOrDie();
  EXPECT_EQ(samplers.size(), 4u);
  // Wrong-kind typed adaptor is a checked error, not UB.
  EXPECT_FALSE(EstimatorPointers(replicas).ok());
}

TEST(SinkSpecPersistTest, SamplerSaveRestoreRoundTripsBitExactly) {
  auto spec = ParseSinkSpec("bop-seq-swor,n=64,k=4,seed=21").ValueOrDie();
  auto original = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < 500; ++i) original.sink->Observe(MakeItem(i));

  auto blob = SaveSink(*original.sink, spec).ValueOrDie();
  auto restored = RestoreSink(blob).ValueOrDie();
  ASSERT_NE(restored.sink.sampler, nullptr);
  EXPECT_EQ(FormatSinkSpec(restored.spec), FormatSinkSpec(spec));

  // Every subsequent draw agrees: RNG state round-tripped.
  for (int q = 0; q < 20; ++q) {
    auto a = original.sampler->Sample();
    auto b = restored.sink.sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]);
    }
  }
}

TEST(SinkSpecPersistTest, EstimatorSaveRestoreRoundTripsBitExactly) {
  auto spec =
      ParseSinkSpec("ams-fk@bop-ts-single,t=100,r=16,seed=3").ValueOrDie();
  auto original = CreateSink(spec).ValueOrDie();
  for (uint64_t i = 0; i < 400; ++i) original.sink->Observe(MakeItem(i));

  auto blob = SaveSink(*original.sink, spec).ValueOrDie();
  auto restored = RestoreSink(blob).ValueOrDie();
  ASSERT_NE(restored.sink.estimator, nullptr);

  EstimateReport a = original.estimator->Estimate();
  EstimateReport b = restored.sink.estimator->Estimate();
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.window_size, b.window_size);
  EXPECT_EQ(a.support, b.support);

  // Restore of garbage is an error, not a crash.
  EXPECT_FALSE(RestoreSink("definitely not an envelope").ok());
}

TEST(SinkSpecListTest, FormatSinkListMentionsEveryRegisteredName) {
  const std::string list = FormatSinkList();
  for (const SinkInfo& reg : RegisteredSinks(SinkKind::kSampler)) {
    EXPECT_NE(list.find(reg.name), std::string::npos) << reg.name;
  }
  for (const SinkInfo& reg : RegisteredSinks(SinkKind::kEstimator)) {
    EXPECT_NE(list.find(reg.name), std::string::npos) << reg.name;
  }
  const std::string names = RegisteredSinkNames();
  EXPECT_NE(names.find("bop-seq-swor"), std::string::npos);
  EXPECT_NE(names.find("ams-fk"), std::string::npos);
}

}  // namespace
}  // namespace swsample
