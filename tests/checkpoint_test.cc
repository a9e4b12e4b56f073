// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Crash-resume determinism across the WHOLE sink table, plus the
// driver-level checkpoint subsystem:
//
//   (1) every registered sampler round-trips through the checkpoint
//       envelope and resumes bit-identically (lockstep sweep);
//   (2) every registered estimator x compatible substrate does too;
//   (3) truncation of every envelope is rejected at every offset, and
//       random byte corruption never crashes restore or first queries;
//   (4) StreamDriver checkpoint -> fresh process (new objects) -> resume
//       reproduces an uninterrupted run's final state bit for bit;
//   (5) ShardedStreamDriver ditto, in both partition modes, including
//       the persisted un-flushed router buffers;
//   (6) manifest/layout errors surface as Status, never crashes.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/freq_moments.h"
#include "apps/sink_spec.h"
#include "apps/triangles.h"
#include "core/checkpoint.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "test_sinks.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {
namespace {

constexpr uint64_t kWindowN = 48;
constexpr Timestamp kWindowT = 25;
constexpr uint32_t kVertices = 12;

SinkSpec MatrixSamplerConfig(const SinkInfo& spec, uint64_t seed) {
  SinkSpec config;
  config.name = spec.name;
  config.window_n = kWindowN;
  config.window_t = kWindowT;
  config.k = spec.single_sample ? 1 : 4;
  config.seed = seed;
  return config;
}

/// One reproducible burst stream; `edges` makes values valid
/// EncodeEdge() encodings (the triangle estimator's input contract).
class BurstStream {
 public:
  explicit BurstStream(uint64_t seed, bool edges)
      : rng_(seed), edges_(edges) {}

  std::vector<Item> Step(Timestamp t) {
    std::vector<Item> burst;
    const uint64_t size = rng_.UniformIndex(4);  // 0..3 arrivals
    for (uint64_t i = 0; i < size; ++i) {
      burst.push_back(Item{NextValue(), index_++, t});
    }
    return burst;
  }

 private:
  uint64_t NextValue() {
    if (!edges_) return rng_.UniformIndex(1 << 12);
    const uint32_t a = static_cast<uint32_t>(rng_.UniformIndex(kVertices));
    uint32_t b = a;
    while (b == a) {
      b = static_cast<uint32_t>(rng_.UniformIndex(kVertices));
    }
    return EncodeEdge(a, b);
  }

  Rng rng_;
  bool edges_;
  uint64_t index_ = 0;
};

TEST(CheckpointMatrixTest, EverySamplerResumesExactly) {
  for (const SinkInfo& spec : RegisteredSinks(SinkKind::kSampler)) {
    SCOPED_TRACE(spec.name);
    const bool timestamped = spec.model == WindowModel::kTimestamp;
    SinkSpec config = MatrixSamplerConfig(spec, 0xc0ffee);
    auto original = MakeSampler(config).ValueOrDie();
    ASSERT_TRUE(original->persistable()) << spec.name;

    BurstStream stream(17, /*edges=*/false);
    for (Timestamp t = 0; t < 150; ++t) {
      for (const Item& item : stream.Step(t)) original->Observe(item);
      if (timestamped) original->AdvanceTime(t);
    }
    std::string blob = SaveSink(*original, config).ValueOrDie();
    auto restored = RestoreAsSampler(blob).ValueOrDie();
    EXPECT_STREQ(restored->name(), spec.name);

    for (Timestamp t = 150; t < 300; ++t) {
      for (const Item& item : stream.Step(t)) {
        original->Observe(item);
        restored->Observe(item);
      }
      if (timestamped) {
        original->AdvanceTime(t);
        restored->AdvanceTime(t);
      }
      auto a = original->Sample();
      auto b = restored->Sample();
      ASSERT_EQ(a.size(), b.size()) << spec.name << " t=" << t;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i], b[i]) << spec.name << " t=" << t << " slot=" << i;
      }
      ASSERT_EQ(original->MemoryWords(), restored->MemoryWords())
          << spec.name << " t=" << t;
    }
  }
}

SinkSpec MatrixEstimatorConfig(const SinkInfo& spec, const SinkInfo& substrate,
                               uint64_t seed) {
  SinkSpec config;
  config.name = spec.name;
  config.substrate = substrate.name;
  config.window_n = kWindowN;
  config.window_t = kWindowT;
  // dkw-quantile refuses r > 1 on single-sample substrates.
  config.r = (substrate.single_sample &&
              std::string_view(spec.name) == "dkw-quantile")
                 ? 1
                 : 4;
  config.seed = seed;
  config.num_vertices = kVertices;
  return config;
}

TEST(CheckpointMatrixTest, EveryEstimatorSubstrateResumesExactly) {
  for (const SinkInfo& spec : RegisteredSinks(SinkKind::kEstimator)) {
    const bool edges = std::string_view(spec.name) == "buriol-triangles";
    for (const char* substrate_name : CompatibleSubstrates(spec)) {
      SCOPED_TRACE(std::string(spec.name) + " over " + substrate_name);
      const SinkInfo* substrate = FindSink(substrate_name);
      ASSERT_NE(substrate, nullptr);
      const bool timestamped = substrate->model == WindowModel::kTimestamp;
      SinkSpec config =
          MatrixEstimatorConfig(spec, *substrate, 0xf00d);
      auto original = MakeEstimator(config).ValueOrDie();
      ASSERT_TRUE(original->persistable())
          << spec.name << " over " << substrate_name;

      BurstStream stream(23, edges);
      for (Timestamp t = 0; t < 120; ++t) {
        for (const Item& item : stream.Step(t)) original->Observe(item);
        if (timestamped) original->AdvanceTime(t);
      }
      std::string blob = SaveSink(*original, config).ValueOrDie();
      auto restored = RestoreAsEstimator(blob).ValueOrDie();
      EXPECT_STREQ(restored->name(), spec.name);

      for (Timestamp t = 120; t < 220; ++t) {
        for (const Item& item : stream.Step(t)) {
          original->Observe(item);
          restored->Observe(item);
        }
        if (timestamped) {
          original->AdvanceTime(t);
          restored->AdvanceTime(t);
        }
        // Estimates consume fresh randomness: equality is exact only
        // because the restored RNG streams are bit-identical.
        if (t % 10 == 0) {
          EstimateReport a = original->Estimate();
          EstimateReport b = restored->Estimate();
          ASSERT_EQ(a.metric, b.metric);
          ASSERT_EQ(a.value, b.value)
              << spec.name << " over " << substrate_name << " t=" << t;
          ASSERT_EQ(a.window_size, b.window_size);
          ASSERT_EQ(a.support, b.support);
          ASSERT_EQ(original->MemoryWords(), restored->MemoryWords());
        }
      }
    }
  }
}

/// Builds one warmed-up envelope per registered sampler and per
/// estimator x substrate pair (every envelope shape the library emits).
std::vector<std::string> AllEnvelopes() {
  std::vector<std::string> blobs;
  for (const SinkInfo& spec : RegisteredSinks(SinkKind::kSampler)) {
    SinkSpec config = MatrixSamplerConfig(spec, 99);
    auto sampler = MakeSampler(config).ValueOrDie();
    BurstStream stream(5, /*edges=*/false);
    for (Timestamp t = 0; t < 80; ++t) {
      for (const Item& item : stream.Step(t)) sampler->Observe(item);
      if (spec.model == WindowModel::kTimestamp) sampler->AdvanceTime(t);
    }
    blobs.push_back(SaveSink(*sampler, config).ValueOrDie());
  }
  for (const SinkInfo& spec : RegisteredSinks(SinkKind::kEstimator)) {
    const bool edges = std::string_view(spec.name) == "buriol-triangles";
    for (const char* substrate_name : CompatibleSubstrates(spec)) {
      const SinkInfo* substrate = FindSink(substrate_name);
      SinkSpec config = MatrixEstimatorConfig(spec, *substrate, 7);
      auto estimator = MakeEstimator(config).ValueOrDie();
      BurstStream stream(11, edges);
      for (Timestamp t = 0; t < 80; ++t) {
        for (const Item& item : stream.Step(t)) estimator->Observe(item);
        if (substrate->model == WindowModel::kTimestamp) {
          estimator->AdvanceTime(t);
        }
      }
      blobs.push_back(SaveSink(*estimator, config).ValueOrDie());
    }
  }
  return blobs;
}

Result<std::unique_ptr<StreamSink>> RestoreAny(const std::string& blob) {
  auto restored = RestoreSink(blob);
  if (!restored.ok()) return restored.status();
  return std::move(restored.value().sink.sink);
}

TEST(CheckpointFuzzTest, TruncationIsRejectedOnEveryEnvelope) {
  for (const std::string& blob : AllEnvelopes()) {
    ASSERT_TRUE(RestoreAny(blob).ok());
    for (size_t cut = 0; cut < blob.size();
         cut += 1 + blob.size() / 97) {  // ~97 cuts per envelope
      ASSERT_FALSE(RestoreAny(blob.substr(0, cut)).ok()) << "cut=" << cut;
    }
  }
}

TEST(CheckpointFuzzTest, ByteCorruptionNeverCrashes) {
  Rng rng(0xfadedace);
  for (const std::string& blob : AllEnvelopes()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string corrupt = blob;
      const size_t pos = rng.UniformIndex(corrupt.size());
      corrupt[pos] = static_cast<char>(corrupt[pos] ^
                                       (1u << rng.UniformIndex(8)));
      auto restored = RestoreAny(corrupt);
      if (!restored.ok()) continue;  // rejected: fine
      // A flipped value byte can still parse; queries must not crash.
      StreamSink& sink = *restored.value();
      sink.MemoryWords();
      if (auto* sampler = dynamic_cast<WindowSampler*>(&sink)) {
        sampler->Sample();
      } else if (auto* estimator = dynamic_cast<WindowEstimator*>(&sink)) {
        estimator->Estimate();
      }
    }
  }
}

// ---------------------------------------------------------------------
// Driver-level checkpoint/resume.

namespace fs = std::filesystem;

/// Writes `lines` of "<value>" (or "<t> <value>") events; returns path.
std::string WriteStreamFile(const std::string& name, uint64_t lines,
                            bool timestamped, uint64_t seed) {
  const std::string path = testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  Rng rng(seed);
  Timestamp ts = 0;
  for (uint64_t i = 0; i < lines; ++i) {
    const uint64_t value = rng.UniformIndex(1 << 14);
    if (timestamped) {
      ts += rng.UniformIndex(2);  // non-decreasing, frequent ties
      std::fprintf(f, "%lld %llu\n", static_cast<long long>(ts),
                   static_cast<unsigned long long>(value));
    } else {
      std::fprintf(f, "%llu\n", static_cast<unsigned long long>(value));
    }
  }
  std::fclose(f);
  return path;
}

/// Copies the first `lines` lines of `path` to a new file (the "crashed
/// before the rest arrived" input).
std::string TruncateFile(const std::string& path, uint64_t lines) {
  const std::string prefix_path = path + ".prefix";
  std::FILE* in = std::fopen(path.c_str(), "r");
  std::FILE* out = std::fopen(prefix_path.c_str(), "w");
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  char line[256];
  for (uint64_t i = 0; i < lines && std::fgets(line, sizeof(line), in); ++i) {
    std::fputs(line, out);
  }
  std::fclose(in);
  std::fclose(out);
  return prefix_path;
}

TEST(DriverCheckpointTest, SingleSinkResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_single.txt", 5000, /*timestamped=*/false, 31);
  const std::string prefix = TruncateFile(stream, 3000);
  const std::string dir = testing::TempDir() + "ckpt_single_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 8;
  config.seed = 0x5eed;

  StreamDriver::Options options;
  options.batch_size = 128;
  StreamDriver driver(options);

  // Uninterrupted reference run.
  auto reference = MakeSampler(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(stream, false, *reference).ok());

  // Crashed run: ingest only the prefix, checkpointing as it goes. (The
  // sink object dies with this scope — recovery must come from disk.)
  {
    auto crashed = MakeSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, 1)
                    .ValueOrDie());
    auto report = driver.DriveFileCheckpointed(prefix, false, *crashed,
                                               &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Checkpoints land on batch boundaries: 1024 and 2048.
    EXPECT_EQ(writer.last_written_items(), 2048u);
  }

  // Resume in a "new process": restore from disk, replay the full input.
  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().shards.size(), 1u);
  EXPECT_EQ(resumed.value().position.items, 2048u);
  auto report = driver.DriveFileCheckpointed(
      stream, false, *resumed.value().sinks[0], nullptr,
      &resumed.value().position);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().items, 5000u - 2048u);

  // Bit-identical final state: every subsequent draw agrees.
  for (int q = 0; q < 20; ++q) {
    auto a = reference->Sample();
    auto b = resumed.value().shards[0].sink.sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

// Timestamp-window sampler cut mid-run: the stream has same-timestamp
// plateaus of 96 items (well above the batched run-append cutover) with a
// bursty clock jump every tenth plateau, and the checkpoint cadence lands
// the cut (2048 = batch boundary) INSIDE a plateau. Resuming must replay
// with the same batch segmentation and reproduce the uninterrupted run's
// state bit for bit -- the contract the horizon-scanned batched expiry
// and closed-form run append guarantee at batch boundaries.
TEST(DriverCheckpointTest, TsSamplerResumeCutInsideSameTimestampRun) {
  const std::string path = testing::TempDir() + "ckpt_ts_run.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    Rng rng(91);
    for (uint64_t i = 0; i < 5000; ++i) {
      const uint64_t run = i / 96;
      const Timestamp ts = static_cast<Timestamp>(run + (run / 10) * 13);
      std::fprintf(f, "%lld %llu\n", static_cast<long long>(ts),
                   static_cast<unsigned long long>(rng.UniformIndex(1 << 14)));
    }
    std::fclose(f);
  }
  const std::string prefix = TruncateFile(path, 3000);
  const std::string dir = testing::TempDir() + "ckpt_ts_run_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-ts-swor";
  config.window_t = 25;
  config.k = 8;
  config.seed = 0x7ead;

  StreamDriver::Options options;
  options.batch_size = 128;
  StreamDriver driver(options);
  auto reference = MakeSampler(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(path, true, *reference).ok());

  {
    auto crashed = MakeSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, 1)
                    .ValueOrDie());
    auto report =
        driver.DriveFileCheckpointed(prefix, true, *crashed, &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // 2048 is not a multiple of the 96-item plateau length, so the saved
    // state ends mid-run with pending same-timestamp arrivals.
    EXPECT_EQ(writer.last_written_items(), 2048u);
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().shards.size(), 1u);
  EXPECT_EQ(resumed.value().position.items, 2048u);
  auto report = driver.DriveFileCheckpointed(
      path, true, *resumed.value().sinks[0], nullptr,
      &resumed.value().position);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().items, 5000u - 2048u);

  for (int q = 0; q < 20; ++q) {
    auto a = reference->Sample();
    auto b = resumed.value().shards[0].sink.sampler->Sample();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST(DriverCheckpointTest, SingleEstimatorResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_est.txt", 4000, /*timestamped=*/true, 41);
  const std::string prefix = TruncateFile(stream, 2500);
  const std::string dir = testing::TempDir() + "ckpt_est_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-ts-single";
  config.window_t = 40;
  config.r = 16;
  config.seed = 0xabba;

  StreamDriver::Options options;
  options.batch_size = 256;
  StreamDriver driver(options);
  auto reference = MakeEstimator(config).ValueOrDie();
  ASSERT_TRUE(driver.DriveFile(stream, true, *reference).ok());

  {
    auto crashed = MakeEstimator(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 800;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 1).ValueOrDie());
    ASSERT_TRUE(driver
                    .DriveFileCheckpointed(prefix, true, *crashed, &writer,
                                           nullptr)
                    .ok());
    EXPECT_GT(writer.last_written_items(), 0u);
  }

  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().shards.size(), 1u);
  ASSERT_TRUE(driver
                  .DriveFileCheckpointed(stream, true,
                                         *resumed.value().sinks[0], nullptr,
                                         &resumed.value().position)
                  .ok());

  for (int q = 0; q < 5; ++q) {
    EstimateReport a = reference->Estimate();
    EstimateReport b = resumed.value().shards[0].sink.estimator->Estimate();
    ASSERT_EQ(a.value, b.value);
    ASSERT_EQ(a.window_size, b.window_size);
    ASSERT_EQ(a.support, b.support);
  }
}

TEST(DriverCheckpointTest, ShardedChunksResumeMatchesUninterruptedRun) {
  const std::string stream =
      WriteStreamFile("ckpt_sharded.txt", 6000, /*timestamped=*/false, 51);
  const std::string prefix = TruncateFile(stream, 3500);
  const std::string dir = testing::TempDir() + "ckpt_sharded_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 4;
  config.seed = 0xd1ce;
  const uint64_t kShards = 4;

  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 64;
  options.partition = ShardPartition::kChunks;
  ShardedStreamDriver driver(options);

  auto reference =
      CreateShardedSinks(config, kShards).ValueOrDie();
  {
    auto sinks = SinkPointers(reference);
    ASSERT_TRUE(driver
                    .DriveFileCheckpointed(stream, false, sinks, nullptr,
                                           nullptr)
                    .ok());
  }

  {
    auto crashed =
        CreateShardedSinks(config, kShards).ValueOrDie();
    auto sinks = SinkPointers(crashed);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, kShards)
                    .ValueOrDie());
    auto report =
        driver.DriveFileCheckpointed(prefix, false, sinks, &writer, nullptr);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(writer.last_written_items(), 3000u);
  }

  auto resumed = ShardedStreamDriver::ResumeFrom(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().shards.size(), kShards);
  EXPECT_EQ(resumed.value().position.items, 3000u);
  // The manifest carries the un-flushed router buffer (3000 % 64 != 0).
  uint64_t pending_items = 0;
  for (const auto& buffer : resumed.value().position.pending) {
    pending_items += buffer.size();
  }
  EXPECT_EQ(pending_items, 3000u % 64);
  {
    auto sinks = resumed.value().sinks;
    auto report = driver.DriveFileCheckpointed(
        stream, false, sinks, nullptr, &resumed.value().position);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }

  for (uint64_t s = 0; s < kShards; ++s) {
    auto a = reference[s].sampler->Sample();
    auto b = resumed.value().shards[s].sink.sampler->Sample();
    ASSERT_EQ(a.size(), b.size()) << "shard " << s;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "shard " << s << " slot " << i;
    }
  }
}

TEST(DriverCheckpointTest, ShardedKeyHashEstimatorResumeMatches) {
  const std::string stream =
      WriteStreamFile("ckpt_keyhash.txt", 5000, /*timestamped=*/true, 61);
  const std::string prefix = TruncateFile(stream, 2600);
  const std::string dir = testing::TempDir() + "ckpt_keyhash_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-ts-single";
  config.window_t = 50;
  config.r = 8;
  config.seed = 0xcafe;
  const uint64_t kShards = 3;

  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 128;
  options.partition = ShardPartition::kKeyHash;
  ShardedStreamDriver driver(options);

  auto reference =
      CreateShardedSinks(config, kShards).ValueOrDie();
  {
    auto sinks = SinkPointers(reference);
    ASSERT_TRUE(driver
                    .DriveFileCheckpointed(stream, true, sinks, nullptr,
                                           nullptr)
                    .ok());
  }

  {
    auto crashed =
        CreateShardedSinks(config, kShards).ValueOrDie();
    auto sinks = SinkPointers(crashed);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 700;
    CheckpointWriter writer(
        policy, MakeSinkSerializers(config, kShards)
                    .ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFileCheckpointed(prefix, true, sinks, &writer, nullptr)
            .ok());
  }

  auto resumed = ShardedStreamDriver::ResumeFrom(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed.value().shards.size(), kShards);
  {
    auto sinks = resumed.value().sinks;
    ASSERT_TRUE(driver
                    .DriveFileCheckpointed(stream, true, sinks, nullptr,
                                           &resumed.value().position)
                    .ok());
  }

  auto ref_ptrs = EstimatorPointers(reference).ValueOrDie();
  std::vector<WindowEstimator*> res_ptrs;
  for (const RestoredSink& shard : resumed.value().shards) {
    res_ptrs.push_back(shard.sink.estimator);
  }
  auto merged_ref = MergedEstimate(ref_ptrs).ValueOrDie();
  auto merged_res = MergedEstimate(res_ptrs).ValueOrDie();
  EXPECT_EQ(merged_ref.value, merged_res.value);
  EXPECT_EQ(merged_ref.window_size, merged_res.window_size);
  EXPECT_EQ(merged_ref.support, merged_res.support);
}

TEST(DriverCheckpointTest, ResumeRejectsMismatchedGeometryAndBadDirs) {
  EXPECT_FALSE(
      LoadCheckpoint(testing::TempDir() + "does_not_exist_dir").ok());

  const std::string stream =
      WriteStreamFile("ckpt_geom.txt", 1200, /*timestamped=*/false, 71);
  const std::string dir = testing::TempDir() + "ckpt_geom_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = 64;
  config.k = 4;
  config.seed = 5;
  ShardedStreamDriver::Options options;
  options.threads = 2;
  options.chunk_items = 64;
  options.partition = ShardPartition::kChunks;
  ShardedStreamDriver driver(options);

  auto shards = CreateShardedSinks(config, 2).ValueOrDie();
  {
    auto sinks = SinkPointers(shards);
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 500;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 2).ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFileCheckpointed(stream, false, sinks, &writer, nullptr)
            .ok());
  }
  auto resumed = ShardedStreamDriver::ResumeFrom(dir);
  ASSERT_TRUE(resumed.ok());

  // Changed chunk size must be rejected.
  ShardedStreamDriver::Options bad_options = options;
  bad_options.chunk_items = 32;
  ShardedStreamDriver bad_driver(bad_options);
  {
    auto sinks = resumed.value().sinks;
    EXPECT_FALSE(bad_driver
                     .DriveFileCheckpointed(stream, false, sinks, nullptr,
                                            &resumed.value().position)
                     .ok());
  }
  // A sharded checkpoint cannot resume through the single-sink driver.
  StreamDriver single;
  EXPECT_FALSE(single
                   .DriveFileCheckpointed(stream, false,
                                          *resumed.value().sinks[0], nullptr,
                                          &resumed.value().position)
                   .ok());
  // Corrupt MANIFEST: flip one byte -> Status, not a crash.
  {
    const std::string manifest_path = dir + "/MANIFEST";
    auto data = [&] {
      std::FILE* f = std::fopen(manifest_path.c_str(), "rb");
      std::string d;
      char buf[4096];
      size_t got;
      while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) d.append(buf, got);
      std::fclose(f);
      return d;
    }();
    data[0] ^= 0x1;
    std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
    std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    EXPECT_FALSE(LoadCheckpoint(dir).ok());
  }
}

TEST(DriverCheckpointTest, ResumeDetectsDivergentReplay) {
  // A resume against an input whose prefix differs from what was
  // ingested must fail (timestamp divergence check).
  const std::string stream =
      WriteStreamFile("ckpt_diverge.txt", 2000, /*timestamped=*/true, 81);
  const std::string dir = testing::TempDir() + "ckpt_diverge_dir";
  fs::remove_all(dir);

  SinkSpec config;
  config.name = "bop-ts-swr";
  config.window_t = 40;
  config.k = 2;
  config.seed = 9;
  StreamDriver driver;

  {
    auto sink = MakeSampler(config).ValueOrDie();
    CheckpointPolicy policy;
    policy.dir = dir;
    policy.every_items = 1000;
    CheckpointWriter writer(
        policy,
        MakeSinkSerializers(config, 1).ValueOrDie());
    ASSERT_TRUE(
        driver.DriveFileCheckpointed(stream, true, *sink, &writer, nullptr)
            .ok());
  }
  auto resumed = LoadCheckpoint(dir);
  ASSERT_TRUE(resumed.ok());
  // Replay a DIFFERENT stream (same length, different timestamps).
  const std::string other =
      WriteStreamFile("ckpt_diverge_other.txt", 2000, true, 82);
  EXPECT_FALSE(driver
                   .DriveFileCheckpointed(other, true,
                                          *resumed.value().sinks[0], nullptr,
                                          &resumed.value().position)
                   .ok());
}

TEST(CheckpointFuzzTest, ForgedPayloadValueIsRejected) {
  // A payload must belong to the candidate item it is saved with: the
  // timestamp units key forward counts on payload.value, so a blob whose
  // payload names another value would silently corrupt every later count.
  // Each envelope ends with its last unit's newest payload, so flipping
  // a bit in that payload's first field (count value / watched endpoint)
  // forges exactly that mismatch.
  struct Case {
    const char* spec;
    size_t payload_bytes;  // serialized payload size
    bool edges;
  };
  const Case cases[] = {
      {"ams-fk@bop-ts-single,t=16,r=3,seed=5", 16, false},
      {"ccm-entropy@bop-ts-single,t=16,r=3,seed=5", 16, false},
      {"ams-fk@bop-seq-single,n=16,r=3,seed=5", 16, false},
      {"buriol-triangles@bop-ts-single,t=16,r=3,seed=5,vertices=32", 26,
       true},
      {"buriol-triangles@bop-seq-single,n=16,r=3,seed=5,vertices=32", 26,
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const SinkSpec spec = ParseSinkSpec(c.spec).ValueOrDie();
    Sink sink = CreateSink(spec).ValueOrDie();
    BurstStream stream(23, c.edges);
    for (Timestamp t = 0; t < 80; ++t) {
      for (const Item& item : stream.Step(t)) sink.sink->Observe(item);
      sink.sink->AdvanceTime(t);
    }
    const std::string blob = SaveSink(*sink.sink, spec).ValueOrDie();
    ASSERT_TRUE(RestoreSink(blob).ok());
    std::string forged = blob;
    forged[forged.size() - c.payload_bytes] ^= 1;
    auto restored = RestoreSink(forged);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// Forged envelopes: every per-field count is within kMaxCheckpointUnits,
// but their product asks construction for an unbounded allocation.

std::string ForgedEstimatorEnvelope(const std::string& name,
                                    const std::string& substrate,
                                    uint64_t window_n, uint64_t r,
                                    uint64_t oversample,
                                    const std::vector<BiasLevel>& levels) {
  BinaryWriter w;
  WriteCheckpointHeader(CheckpointKind::kEstimator, &w);
  w.PutString(name);
  w.PutString(substrate);
  w.PutU64(window_n);
  w.PutI64(0);     // window_t
  w.PutU64(r);
  w.PutU64(1);     // seed
  w.PutU64(2);     // moment
  w.PutU64(0);     // vertices
  w.PutDouble(0.05);
  w.PutDouble(0.5);
  w.PutU64(oversample);
  w.PutU64(levels.size());
  for (const BiasLevel& level : levels) {
    w.PutU64(level.window);
    w.PutDouble(level.weight);
  }
  return w.Release();
}

std::vector<std::string> ForgedAllocationEnvelopes() {
  // dkw-quantile over oversample-swor: r x oversample = 2^40 units.
  std::string quantile = ForgedEstimatorEnvelope(
      "dkw-quantile", "oversample-swor", kMaxCheckpointUnits,
      kMaxCheckpointUnits, kMaxCheckpointUnits, {});
  // biased-mean with 1024 levels of r = 2^20 units each.
  std::vector<BiasLevel> levels;
  for (uint64_t window = 1; window <= 1024; ++window) {
    levels.push_back(BiasLevel{window, 1.0});
  }
  std::string biased = ForgedEstimatorEnvelope(
      "biased-mean", "bop-seq-swr", 1024, kMaxCheckpointUnits, 3, levels);
  return {quantile, biased};
}

TEST(CheckpointFuzzTest, ForgedAllocationEnvelopesAreRejected) {
  int input = 0;
  for (const std::string& blob : ForgedAllocationEnvelopes()) {
    SCOPED_TRACE("forged envelope " + std::to_string(input));
    const std::string tag = std::to_string(input++);

    auto restored = RestoreSink(blob);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

    // As the shard file of a committed checkpoint.
    const std::string dir = testing::TempDir() + "ckpt_forged_" + tag;
    fs::remove_all(dir);
    {
      const SinkSpec spec = ParseSinkSpec("bop-seq-swr,n=8,k=2").ValueOrDie();
      Sink sink = CreateSink(spec).ValueOrDie();
      CheckpointPolicy policy;
      policy.dir = dir;
      CheckpointWriter writer(policy,
                              MakeSinkSerializers(spec, 1).ValueOrDie());
      CheckpointManifest manifest;
      manifest.shard_items = {0};
      StreamSink* sinks[] = {sink.sink.get()};
      ASSERT_TRUE(writer.Write(manifest, sinks).ok());
    }
    std::ofstream(dir + "/shard-0000-0.ckpt",
                  std::ios::binary | std::ios::trunc)
        << blob;
    auto loaded = LoadCheckpoint(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

    // As the envelope inside a keyed spill file.
    const std::string spill_dir =
        testing::TempDir() + "ckpt_forged_spill_" + tag;
    fs::remove_all(spill_dir);
    fs::create_directories(spill_dir);
    KeyedEngineOptions options;
    options.spec = ParseSinkSpec("bop-seq-single,n=16,seed=9").ValueOrDie();
    options.memory_budget_bytes = 96 * 1024;
    options.spill_dir = spill_dir;
    options.fsync_spills = false;
    auto engine = KeyedWindowEngine::Create(options).ValueOrDie();
    for (uint64_t i = 0; i < 8; ++i) {
      engine->Observe(Item{0, i, static_cast<Timestamp>(i)});
    }
    ASSERT_TRUE(engine->EvictKey(0).ok());
    // Keep the spill header, swap in the forged envelope.
    std::string spill_path;
    for (const auto& entry : fs::directory_iterator(spill_dir)) {
      spill_path = entry.path().string();
    }
    ASSERT_FALSE(spill_path.empty());
    std::ifstream in(spill_path, std::ios::binary);
    const std::string spill((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    BinaryReader r(spill);
    BinaryWriter forged;
    for (int field = 0; field < 7; ++field) {
      uint64_t value = 0;
      ASSERT_TRUE(r.GetU64(&value));
      forged.PutU64(value);
    }
    forged.PutString(blob);
    std::ofstream(spill_path, std::ios::binary | std::ios::trunc)
        << forged.Release();
    EXPECT_FALSE(engine->SampleKey(0).ok());
    EXPECT_TRUE(engine->status().ok()) << engine->status().ToString();
    EXPECT_EQ(engine->stats().quarantined_files, 1u);
    EXPECT_EQ(engine->stats().restore_misses, 1u);
  }
}

// ---------------------------------------------------------------------
// Format version 1, pinned: envelopes written by an earlier build (the
// hex files under tests/data) must restore, resume the same seeded stream
// as a run that was never interrupted, and re-serialize byte for byte.

Item PinnedItem(uint64_t i) {
  return Item{(i * 7919) % 1000, i, static_cast<Timestamp>(i / 3)};
}

std::string ReadHexBlob(const std::string& file) {
  std::ifstream in(std::string(SWSAMPLE_TEST_DATA_DIR) + "/" + file);
  std::string hex, line;
  while (std::getline(in, line)) hex += line;
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

struct PinnedEnvelope {
  const char* file;
  const char* spec;  ///< the spec the blob was saved from
  bool timestamped;
};

constexpr PinnedEnvelope kPinnedEnvelopes[] = {
    {"envelope_v1_bop-ts-swor.hex", "bop-ts-swor,t=16,k=3,seed=101", true},
    {"envelope_v1_biased-mean.hex",
     "biased-mean@bop-seq-swor,n=32,r=2,seed=202,bias=8:1+32:0.5", false},
};

TEST(CheckpointPinnedBytesTest, Version1EnvelopesStayReadable) {
  ASSERT_EQ(kCheckpointVersion, 1u);
  for (const PinnedEnvelope& pinned : kPinnedEnvelopes) {
    SCOPED_TRACE(pinned.spec);
    const std::string blob = ReadHexBlob(pinned.file);
    ASSERT_FALSE(blob.empty()) << "missing test data " << pinned.file;

    auto restored = RestoreSink(blob);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const SinkSpec& spec = restored.value().spec;
    EXPECT_EQ(FormatSinkSpec(spec), pinned.spec);
    Sink& resumed = restored.value().sink;
    EXPECT_EQ(SaveSink(*resumed.sink, spec).ValueOrDie(), blob);

    // The run that was never interrupted: the blob was saved after items
    // [0, 120) of this stream.
    Sink reference = CreateSink(ParseSinkSpec(pinned.spec).ValueOrDie())
                         .ValueOrDie();
    auto feed = [&](Sink& sink, uint64_t i) {
      sink.sink->Observe(PinnedItem(i));
      if (pinned.timestamped) sink.sink->AdvanceTime(PinnedItem(i).timestamp);
    };
    for (uint64_t i = 0; i < 120; ++i) feed(reference, i);
    for (uint64_t i = 120; i < 360; ++i) {
      feed(reference, i);
      feed(resumed, i);
      if (i % 10 != 0) continue;
      if (reference.sampler != nullptr) {
        ASSERT_EQ(reference.sampler->Sample(), resumed.sampler->Sample())
            << "i=" << i;
      } else {
        const EstimateReport a = reference.estimator->Estimate();
        const EstimateReport b = resumed.estimator->Estimate();
        ASSERT_EQ(a.value, b.value) << "i=" << i;
        ASSERT_EQ(a.window_size, b.window_size);
        ASSERT_EQ(a.support, b.support);
      }
    }
  }
}

TEST(CheckpointPinnedBytesTest, TimestampFkEnvelopeKeepsExactCounts) {
  // ams-fk over bop-ts-single, saved by an earlier build after items
  // [0, 120) of the stream below (fed item-wise, AdvanceTime after each).
  // Seven values so forward counts exceed 1. Restore must reproduce the
  // bytes, and every unit's count must stay exact as the stream continues
  // through item-wise and batched ingestion.
  const auto item_at = [](uint64_t i) {
    return Item{(i * 7919) % 7, i, static_cast<Timestamp>(i / 3)};
  };
  const std::string blob = ReadHexBlob("envelope_v1_ams-fk-ts.hex");
  ASSERT_FALSE(blob.empty()) << "missing test data";
  auto restored = RestoreSink(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const SinkSpec& spec = restored.value().spec;
  EXPECT_EQ(FormatSinkSpec(spec), "ams-fk@bop-ts-single,t=16,r=3,seed=303");
  Sink& resumed = restored.value().sink;
  EXPECT_EQ(SaveSink(*resumed.sink, spec).ValueOrDie(), blob);
  auto* fk = dynamic_cast<FkEstimator*>(resumed.sink.get());
  ASSERT_NE(fk, nullptr);

  const auto check_counts = [&](uint64_t end) {
    const uint64_t live = fk->substrate().ForEachSample(
        [&](const Item& item, const CountPayload& payload) {
          ASSERT_EQ(item, item_at(item.index));
          uint64_t expected = 0;
          for (uint64_t j = item.index; j < end; ++j) {
            expected += item_at(j).value == item.value;
          }
          EXPECT_EQ(payload.value, item.value);
          EXPECT_EQ(payload.count, expected) << "end=" << end;
        });
    EXPECT_EQ(live, 3u);
  };
  check_counts(120);
  uint64_t i = 120;
  while (i < 360) {
    // Alternate item-wise and batched stretches of ragged length.
    const uint64_t len = 1 + i % 13;
    std::vector<Item> batch;
    for (uint64_t j = 0; j < len; ++j) batch.push_back(item_at(i + j));
    if (i % 2 == 0) {
      for (const Item& item : batch) resumed.sink->Observe(item);
    } else {
      resumed.sink->ObserveBatch(batch);
    }
    i += len;
    resumed.sink->AdvanceTime(batch.back().timestamp);
    check_counts(i);
  }
}

}  // namespace
}  // namespace swsample
