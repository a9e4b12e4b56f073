// Copyright (c) swsample authors. Licensed under the MIT license.
//
// E16: sharded ingestion scaling. Partitions one pre-materialized stream
// across N worker threads (round-robin chunks, shard windows n/N) and
// measures aggregate and per-core throughput against the single-threaded
// batched StreamDriver baseline, for the samplers whose merged output the
// engine can recombine (bop-seq-swr / bop-seq-swor) and for a merge-capable
// estimator (ams-fk over key-hash partitioning). The file rows ingest a
// generated "<value>" file end to end, parse included: the sharded
// DriveLines at 2 and 4 threads against one StreamDriver over the same
// file on one CPU (pinned, so it parses on no helper thread); their
// speedup_file_sharded_vs_single is gated in BENCH.json. An informational
// row adds the unpinned StreamDriver, which parses on its helper pool. The
// scaling claim needs real cores: on a 1-core host every multi-thread row
// collapses to ~1x, so the table prints the detected core count for
// context.

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/sink_spec.h"
#include "bench/bench_util.h"
#include "stream/driver.h"
#include "stream/sharded_driver.h"

using namespace swsample;
using namespace swsample::bench;

namespace {

// Sizes keep the kChunks exact-union alignment in both modes: the shard
// window (kWindow / threads) stays a multiple of kChunkItems and the
// stream length a multiple of kChunkItems * threads for threads <= 8.
const uint64_t kItems = Scaled(1 << 24, 256);  // 16M arrivals (full mode)
const uint64_t kWindow = Scaled(1 << 20, 256);
constexpr uint64_t kK = 64;
const uint64_t kChunkItems = Scaled(1 << 14, 256);

std::vector<Item> MakeStream(uint64_t items, uint64_t seed) {
  Rng rng(seed);
  std::vector<Item> out;
  out.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    out.push_back(
        Item{rng.UniformIndex(1 << 16), i, static_cast<Timestamp>(i)});
  }
  return out;
}

/// Shard-count sweep for one sampler: aggregate M items/s, speedup over
/// the 1-thread StreamDriver baseline, and per-core efficiency.
void SamplerSweep(const char* name, std::span<const Item> stream,
                  const std::vector<uint64_t>& thread_counts) {
  SinkSpec config;
  config.name = name;
  config.window_n = kWindow;
  config.k = kK;
  config.seed = 16;

  double baseline = 0.0;
  {
    Sink sampler_sink = CreateSink(config).ValueOrDie();
    WindowSampler* sampler = sampler_sink.sampler;
    StreamDriver::Options options;
    options.batch_size = kChunkItems;
    options.memory_probe_every = 0;
    auto report = StreamDriver(options).Drive(stream, *sampler);
    baseline = report.items_per_sec;
    Row({name, "baseline", F(baseline / 1e6, 2), "1.00", "1.00",
         U(report.peak_memory_words)});
  }
  for (uint64_t threads : thread_counts) {
    auto shards = CreateShardedSinks(config, threads).ValueOrDie();
    auto sinks = SinkPointers(shards);
    ShardedStreamDriver::Options options;
    options.threads = threads;
    options.chunk_items = kChunkItems;
    options.memory_probe_every = 0;
    options.partition = ShardPartition::kChunks;
    auto report =
        ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
    const double aggregate = report.total.items_per_sec;
    const double speedup = baseline > 0 ? aggregate / baseline : 0.0;
    Row({name, U(threads) + " thr", F(aggregate / 1e6, 2), F(speedup, 2),
         F(speedup / static_cast<double>(threads), 2),
         U(report.total.peak_memory_words)});
    // The merged draw must exist and stay inside the window — a cheap
    // end-to-end guard that the sweep measured a correct configuration.
    auto merged =
        MergedSnapshot(SamplerPointers(shards).ValueOrDie(), config.seed).ValueOrDie();
    const uint64_t window_start = stream.size() - kWindow;
    for (const Item& item : merged.sample) {
      SWS_CHECK(item.value >= window_start);  // value == global index here
    }
  }
}

void EstimatorSweep(std::span<const Item> stream,
                    const std::vector<uint64_t>& thread_counts) {
  SinkSpec config;
  config.name = "ams-fk";
  config.substrate = "bop-seq-single";
  config.window_n = kWindow;
  config.r = 64;
  config.seed = 16;

  double baseline = 0.0;
  {
    Sink est_sink = CreateSink(config).ValueOrDie();
    WindowEstimator* est = est_sink.estimator;
    StreamDriver::Options options;
    options.batch_size = kChunkItems;
    options.memory_probe_every = 0;
    auto report = StreamDriver(options).Drive(stream, *est);
    baseline = report.items_per_sec;
    Row({"ams-fk", "baseline", F(baseline / 1e6, 2), "1.00", "1.00",
         U(report.peak_memory_words)});
  }
  for (uint64_t threads : thread_counts) {
    auto shards = CreateShardedSinks(config, threads).ValueOrDie();
    auto sinks = SinkPointers(shards);
    ShardedStreamDriver::Options options;
    options.threads = threads;
    options.chunk_items = kChunkItems;
    options.memory_probe_every = 0;
    options.partition = ShardPartition::kKeyHash;
    auto report =
        ShardedStreamDriver(options).Drive(stream, sinks).ValueOrDie();
    const double aggregate = report.total.items_per_sec;
    const double speedup = baseline > 0 ? aggregate / baseline : 0.0;
    Row({"ams-fk", U(threads) + " thr", F(aggregate / 1e6, 2), F(speedup, 2),
         F(speedup / static_cast<double>(threads), 2),
         U(report.total.peak_memory_words)});
    SWS_CHECK(
        MergedEstimate(EstimatorPointers(shards).ValueOrDie()).ValueOrDie().value > 0);
  }
}

// The file rows' input is the same in smoke and full mode, so their gated
// ratio means the same in both; only the repetitions shrink.
constexpr uint64_t kFileLines = 2'000'000;
constexpr uint64_t kFileWindow = 1 << 18;
constexpr uint64_t kFileChunk = 1024;
const int kFileRounds = SmokeMode() ? 5 : 11;

/// A "<value>" line per event, values uniform below 10^6, in an anonymous
/// temporary file.
std::FILE* GenerateEventFile() {
  std::FILE* f = std::tmpfile();
  SWS_CHECK(f != nullptr);
  Rng rng(21);
  std::string text;
  for (uint64_t i = 0; i < kFileLines; ++i) {
    text += std::to_string(rng.UniformIndex(1000000));
    text += '\n';
    if (text.size() >= (1 << 20)) {
      SWS_CHECK(std::fwrite(text.data(), 1, text.size(), f) == text.size());
      text.clear();
    }
  }
  SWS_CHECK(std::fwrite(text.data(), 1, text.size(), f) == text.size());
  return f;
}

/// items/s of one StreamDriver drive of the whole file.
double SingleFileRate(std::FILE* f, const SinkSpec& config) {
  std::rewind(f);
  Sink sink = CreateSink(config).ValueOrDie();
  auto report = StreamDriver().DriveLines(f, "e16-file", false, *sink.sink);
  SWS_CHECK(report.ok() && report.value().items == kFileLines);
  return report.value().items_per_sec;
}

/// SingleFileRate with this thread pinned to the CPU it runs on, so the
/// driver parses on no helper thread: the one-thread baseline. Unpinned
/// where the affinity mask cannot be set.
double OneCpuFileRate(std::FILE* f, const SinkSpec& config) {
#if defined(__linux__)
  cpu_set_t mask;
  const int cpu = sched_getcpu();
  if (cpu >= 0 && sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      const double rate = SingleFileRate(f, config);
      SWS_CHECK(sched_setaffinity(0, sizeof(mask), &mask) == 0);
      return rate;
    }
  }
#endif
  return SingleFileRate(f, config);
}

/// items/s of one drive of the whole file: the one-thread StreamDriver
/// when `threads` is 0, else the sharded DriveLines with one shard per
/// thread.
double FileRate(std::FILE* f, const SinkSpec& config, uint64_t threads) {
  if (threads == 0) return OneCpuFileRate(f, config);
  std::rewind(f);
  auto shards = CreateShardedSinks(config, threads).ValueOrDie();
  ShardedStreamDriver::Options options;
  options.threads = threads;
  options.chunk_items = kFileChunk;
  options.memory_probe_every = 0;
  options.partition = ShardPartition::kChunks;
  auto report = ShardedStreamDriver(options).DriveLines(
      f, "e16-file", false, SinkPointers(shards));
  SWS_CHECK(report.ok() && report.value().total.items == kFileLines);
  return report.value().total.items_per_sec;
}

/// File ingestion, parse included: bop-seq-swor from one generated file
/// through the sharded DriveLines (blocks parsed on the workers) at 2 and
/// 4 threads against the one-thread StreamDriver, and the StreamDriver
/// with its parse helpers. The drives alternate round by round, and each
/// reports its best round, so a slow stretch of a shared host hits all of
/// them alike.
void FileSweep() {
  std::FILE* f = GenerateEventFile();
  SinkSpec config;
  config.name = "bop-seq-swor";
  config.window_n = kFileWindow;
  config.k = 16;
  config.seed = 16;
  const uint64_t thread_counts[] = {0, 2, 4};
  double best[3] = {0.0, 0.0, 0.0};
  double best_pool = 0.0;
  for (int round = 0; round < kFileRounds; ++round) {
    for (int i = 0; i < 3; ++i) {
      best[i] = std::max(best[i], FileRate(f, config, thread_counts[i]));
    }
    best_pool = std::max(best_pool, SingleFileRate(f, config));
  }
  std::fclose(f);
  Row({"bop-seq-swor", "file single", F(best[0] / 1e6, 2), "1.00", "1.00",
       "-"});
  Row({"bop-seq-swor", "file helpers", F(best_pool / 1e6, 2),
       F(best[0] > 0 ? best_pool / best[0] : 0.0, 2), "-", "-"});
  BenchReporter::Global().Report(
      "e16", "file-seq-helpers",
      {{"gated", 0},
       {"items_per_sec_single", best[0]},
       {"items_per_sec_helpers", best_pool},
       {"helpers_vs_single", best[0] > 0 ? best_pool / best[0] : 0.0}});
  for (int i = 1; i < 3; ++i) {
    const uint64_t threads = thread_counts[i];
    const double speedup = best[0] > 0 ? best[i] / best[0] : 0.0;
    Row({"bop-seq-swor", "file " + U(threads) + " thr", F(best[i] / 1e6, 2),
         F(speedup, 2), F(speedup / static_cast<double>(threads), 2), "-"});
    BenchReporter::Global().Report(
        "e16", "file-seq-" + U(threads) + "thr",
        {{"gated", 1},
         {"items_per_sec_single", best[0]},
         {"items_per_sec_sharded", best[i]},
         {"speedup_file_sharded_vs_single", speedup}});
  }
}

}  // namespace

int main() {
  Banner("E16: sharded ingestion scaling",
         "aggregate items/s grows with worker threads; target >= 3x at 4 "
         "threads for bop-seq-swr on a >= 4-core host");
  std::printf("host hardware_concurrency: %u\n",
              std::thread::hardware_concurrency());

  // A stream with value == index makes window membership checkable after
  // the merged draw.
  std::vector<Item> stream;
  stream.reserve(kItems);
  for (uint64_t i = 0; i < kItems; ++i) {
    stream.push_back(Item{i, i, static_cast<Timestamp>(i)});
  }

  std::vector<uint64_t> thread_counts = {1, 2, 4};
  if (std::thread::hardware_concurrency() >= 8) thread_counts.push_back(8);

  std::printf("\n-- samplers (round-robin chunks, shard windows n/N) --\n");
  Row({"sampler", "config", "M items/s", "speedup", "per-core", "peak wrds"});
  SamplerSweep("bop-seq-swr", stream, thread_counts);
  SamplerSweep("bop-seq-swor", stream, thread_counts);

  // Keyed workload: hashed values, key-hash partitioning, merged by the
  // F_k shard-sum identity.
  const std::vector<Item> keyed = MakeStream(kItems, /*seed=*/16);
  std::printf("\n-- estimator (key-hash partitioning, shard-sum merge) --\n");
  Row({"estimator", "config", "M items/s", "speedup", "per-core",
       "peak wrds"});
  EstimatorSweep(keyed, thread_counts);

  std::printf("\n-- file ingestion, parse included (%llu lines) --\n",
              static_cast<unsigned long long>(kFileLines));
  Row({"sampler", "config", "M items/s", "vs single", "per-core",
       "peak wrds"});
  FileSweep();

  std::printf(
      "\nnote: the producer routes zero-copy sub-spans in chunks mode; the\n"
      "per-item re-index copy runs on the workers, so aggregate throughput\n"
      "scales with cores until memory bandwidth saturates. On a 1-core\n"
      "host (CI smoke) the rows collapse to ~1x by construction.\n");
  BenchReporter::Global().WriteJsonIfRequested();
  return 0;
}
