// Copyright (c) swsample authors. Licensed under the MIT license.
//
// End-to-end benchmark of the swsample library over the four paths users
// run. One invocation measures one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a closed loop: one thread feeds the input as fast as
// the library takes it. A "pass" sets up the sink (timed as setup), drives
// the whole generated input through the library's public entry points with
// the workload's queries on the ingest thread, and checks the outputs.
// Passes repeat until --seconds is spent and the reported figures are
// medians over passes, which keeps them steady across runs.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs untraced passes
// (for file-seq-sharded interleaved with its single-threaded and
// no-checkpoint comparison drives), then traced passes in which every call
// into a layer is wrapped in a span, and reports the per-layer metrics;
// per-layer `_s` figures and counts are per pass.
//
// Workloads, and why each exists:
//   file-ts           "<ts> <value>" file, StreamDriver::DriveFile (the CLI's
//                     mmap path) into bop-ts-swr, one Sample() at the end.
//                     Parsing dominates: front-end and parser changes show.
//   file-seq-sharded  "<value>" file, ShardedStreamDriver::
//                     DriveFileCheckpointed, 3 workers, kChunks, a
//                     checkpoint every 2M items, MergedSnapshot at the end.
//                     Only producer-side changes (parse, route, checkpoint
//                     quiesce) move it; shards are nearly idle.
//   estimate-ts       in-memory items, StreamDriver::Drive into
//                     ams-fk@bop-ts-single with an Estimate() every 8192
//                     items. The estimator is the whole cost; nothing parses.
//   keyed-budget      in-memory keyed items into a KeyedWindowEngine whose
//                     memory budget binds, with a SampleKey() every 4096
//                     items. The only workload that runs demux, per-key
//                     allocation, spill and restore.
//
// The last stdout line is the JSON result; the line before it is an "info"
// object with input digests, the scratch filesystem, sample counts and
// failed_ops_frac.

#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "apps/sink_spec.h"
#include "inputs.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using swsample::CheckpointWriter;
using swsample::Item;
using swsample::SinkSpec;
using swsample::StreamDriver;
using swsample::StreamSink;
using swsample::Timestamp;

// ---------------------------------------------------------------- sizing
// Timestamp windows are 100000 units with 4 arrivals per unit, so about
// 400K items are active; every input spans several windows.
constexpr Timestamp kTsWindow = 100000;

constexpr uint64_t kFileTsLines = 8'000'000;
constexpr char kFileTsSink[] = "bop-ts-swr,t=100000,k=16";

// kChunks makes the shard windows union to the global last-n window exactly
// when n / shards is a multiple of the chunk size and the line count is a
// multiple of chunk size * shards, so the in-window check can be exact.
constexpr uint64_t kSeqLines = 9'000'000;
constexpr uint64_t kSeqWindow = 300000;
constexpr char kSeqSink[] = "bop-seq-swor,n=300000,k=16";
constexpr uint64_t kShards = 3;
constexpr uint64_t kChunkItems = 1000;
constexpr uint64_t kCheckpointEvery = 2'000'000;
static_assert(kSeqLines % (kChunkItems * kShards) == 0);
static_assert((kSeqWindow / kShards) % kChunkItems == 0);

// The file workloads end each pass with a burst of queries rather than one,
// so that every run has enough query latencies for a p99.
constexpr uint64_t kFinalQueries = 1000;

constexpr uint64_t kEstimateItems = 2'000'000;
constexpr uint64_t kEstimateEvery = 8192;
constexpr char kEstimateSink[] = "ams-fk@bop-ts-single,t=100000,r=8";

constexpr uint64_t kKeyedItems = 2'000'000;
constexpr uint64_t kKeyedQueryEvery = 4096;
constexpr uint64_t kKeyedBudget = 128ULL << 20;
constexpr Timestamp kKeyedTtl = 131072;
constexpr char kKeyedSink[] = "bop-ts-single,t=100000";

// ------------------------------------------------------------- utilities

double Seconds(int64_t from_ns, int64_t to_ns) {
  return (to_ns - from_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

constexpr unsigned long kTmpfsMagic = 0x01021994UL;

std::string FsType(const fs::path& dir) {
  struct statfs info;
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case kTmpfsMagic: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Where a run keeps its scratch: inputs, checkpoint and spill
/// directories, fresh per run and removed at its end. A tmpfs, so that the
/// figures measure the library rather than the disk: on a shared disk every
/// checkpoint commit and spill waits for fsync and metadata writes whose
/// latency other tenants set (commits of 100 ms and more were measured). A
/// checkout without a writable tmpfs at /dev/shm falls back to .bench_build
/// under the working directory; the result's info line names the
/// filesystem used.
fs::path ScratchBase(const fs::path& fallback) {
  const fs::path shm = "/dev/shm";
  struct statfs info;
  if (statfs(shm.c_str(), &info) == 0 &&
      static_cast<unsigned long>(info.f_type) == kTmpfsMagic &&
      access(shm.c_str(), W_OK) == 0) {
    return shm;
  }
  return fallback / "scratch";
}

/// A fresh, empty directory.
bool FreshDir(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return fs::create_directories(dir, ec);
}

SinkSpec SpecOrDie(const char* text, uint64_t seed) {
  auto spec = swsample::ParseSinkSpec(text);
  if (!spec.ok()) {
    std::fprintf(stderr, "bad sink spec %s: %s\n", text,
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  spec.value().seed = seed;
  return spec.value();
}

template <typename T>
T OrDie(swsample::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

/// Named metric values with units, printed as a JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, entry] : values_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", entry.first);
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             entry.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Counts attempted and failed operations: drive calls, checkpoint
/// commits, queries and output checks.
class Tally {
 public:
  void Check(bool ok, const std::string& what) { Ops(1, ok ? 0 : 1, what); }
  void Ops(uint64_t attempted, uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && ++reported_ <= 20) {
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reported_ = 0;
};

/// Span recording state for traced passes. Lane 0 is the ingest thread;
/// lanes 1..kShards belong to the sharded driver's workers.
struct Tracing {
  TraceLog log{1 + kShards};
  TraceLog::SpanId pass = TraceLog::kNoParent;
  /// The open drive span: the parent of every sink and serializer span.
  TraceLog::SpanId drive = TraceLog::kNoParent;
};

/// Times one query into `latencies_us`, and as a span when tracing.
template <typename Fn>
auto TimedQuery(Tracing* tracing, std::vector<double>& latencies_us, Fn fn) {
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  latencies_us.push_back((end - start) * 1e-3);
  if (tracing != nullptr) {
    tracing->log.Record(0, Layer::kQuery, tracing->pass, start, end);
  }
  return result;
}

/// What one pass measured.
struct PassStats {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< first item delivered to return of the last call
  uint64_t items = 0;
  uint64_t state_bytes = 0;
  double rate() const { return wall_s > 0.0 ? items / wall_s : 0.0; }
};

/// The info object printed before the result line.
struct Info {
  std::vector<std::pair<std::string, std::string>> fields;  // raw JSON
  void Add(const std::string& key, const std::string& json_value) {
    fields.emplace_back(key, json_value);
  }
  void AddString(const std::string& key, const std::string& value) {
    Add(key, "\"" + value + "\"");
  }
  void AddNumber(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Add(key, buf);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the input (not timed). False on failure.
  virtual bool Prepare(uint64_t seed, const fs::path& work, Info& info) = 0;
  /// Runs one pass of `variant` (0 = the workload itself; higher variants
  /// are the trace run's comparison drives).
  virtual PassStats Pass(int variant, Tally& tally, Tracing* tracing,
                         std::vector<double>& query_us) = 0;
  virtual int variants() const { return 1; }
  /// Per-layer metrics from the traced passes (`passes` of them) and the
  /// untraced per-variant median rates.
  virtual void LayerMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                            int passes, double traced_wall_s,
                            const std::vector<double>& variant_rates,
                            Metrics& m) = 0;

 protected:
  uint64_t seed_ = 0;
  fs::path work_;
  Input input_;
  /// Traced-pass accumulators shared by the workloads.
  uint64_t traced_batches_ = 0;
  uint64_t traced_items_ = 0;
  uint64_t last_state_bytes_ = 0;

  bool PrepareCommon(uint64_t seed, const fs::path& work, Info& info) {
    seed_ = seed;
    work_ = work;
    if (input_.digest.empty()) return false;
    info.AddString("input_digest", input_.digest);
    info.AddNumber("input_items", static_cast<double>(input_.count));
    if (!input_.path.empty()) {
      info.AddNumber("input_bytes", static_cast<double>(input_.bytes));
    }
    return true;
  }

  /// Driver-layer metrics: the drive spans' self time, i.e. the drive's
  /// wall time minus the time spent inside sink (and serializer) calls.
  void DriverMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                     int passes, double traced_wall_s, Metrics& m) const {
    const double self = layers[static_cast<size_t>(Layer::kDriver)].self_s;
    m.Set("driver.self_s", self / passes, "s");
    m.Set("driver.self_frac", self / traced_wall_s, "frac");
    m.Set("driver.lines_per_s", self > 0.0 ? traced_items_ / self : 0.0,
          "1/s");
    m.Set("driver.batches", static_cast<double>(traced_batches_) / passes,
          "count");
  }

  /// Core-layer metrics: the sampler calls under the drive spans.
  void CoreMetrics(const std::vector<TraceLog::LayerTimes>& layers, int passes,
                   double traced_wall_s, Metrics& m) const {
    const auto& core = layers[static_cast<size_t>(Layer::kCore)];
    SinkLayerMetrics(core, "core", passes, traced_wall_s, m);
    m.Set("core.observe_us.p50", Percentile(core.durations_s, 0.5) * 1e6,
          "us");
    m.Set("core.state_bytes", static_cast<double>(last_state_bytes_),
          "bytes");
  }

  /// Metrics of the sink layer `layer` (core or apps).
  static void SinkLayerMetrics(const TraceLog::LayerTimes& t,
                               const std::string& prefix, int passes,
                               double traced_wall_s, Metrics& m) {
    m.Set(prefix + ".observe_s", t.total_s / passes, "s");
    m.Set(prefix + ".observe_frac", t.total_s / traced_wall_s, "frac");
    m.Set(prefix + ".observe_us.p99", Percentile(t.durations_s, 0.99) * 1e6,
          "us");
  }
};

// ----------------------------------------------------------------- file-ts

class FileTs final : public Workload {
 public:
  bool Prepare(uint64_t seed, const fs::path& work, Info& info) override {
    input_ = WriteEventFile(seed, 1, kFileTsLines, /*timestamped=*/true,
                            work / "file-ts.txt");
    return PrepareCommon(seed, work, info);
  }

  PassStats Pass(int, Tally& tally, Tracing* tracing,
                 std::vector<double>& query_us) override {
    PassStats stats;
    const int64_t t0 = NowNs();
    swsample::Sink sink =
        OrDie(swsample::CreateSink(SpecOrDie(kFileTsSink, seed_)), "sink");
    const StreamDriver driver;
    std::optional<TracedSink> traced;
    if (tracing != nullptr) {
      traced.emplace(*sink.sink, tracing->log, 0, Layer::kCore,
                     &tracing->drive);
    }
    StreamSink& target = traced ? static_cast<StreamSink&>(*traced)
                                : *sink.sink;
    const int64_t t1 = NowNs();
    if (tracing != nullptr) {
      tracing->pass = tracing->log.Open(0, Layer::kPass, TraceLog::kNoParent);
      tracing->drive = tracing->log.Open(0, Layer::kDriver, tracing->pass);
    }
    auto report = driver.DriveFile(input_.path, /*timestamped=*/true, target);
    if (tracing != nullptr) tracing->log.Close(tracing->drive);
    std::vector<std::vector<Item>> samples;
    for (uint64_t q = 0; q < kFinalQueries; ++q) {
      samples.push_back(TimedQuery(tracing, query_us,
                                   [&] { return sink.sampler->Sample(); }));
    }
    const int64_t t2 = NowNs();
    if (tracing != nullptr) tracing->log.Close(tracing->pass);

    stats.setup_s = Seconds(t0, t1);
    stats.wall_s = Seconds(t1, t2);
    tally.Check(report.ok(), "file-ts drive: " + report.status().ToString());
    stats.items = report.ok() ? report.value().items : 0;
    tally.Check(stats.items == input_.count, "file-ts item count");
    for (const std::vector<Item>& sample : samples) {
      bool active = sample.size() == 16;
      for (const Item& item : sample) {
        active = active && input_.last_ts - item.timestamp < kTsWindow;
      }
      tally.Check(active, "file-ts: short sample or item outside the window");
    }
    stats.state_bytes = sink.sink->RetainedBytes();
    if (tracing != nullptr && report.ok()) {
      traced_batches_ += report.value().batches;
      traced_items_ += stats.items;
      last_state_bytes_ = stats.state_bytes;
    }
    return stats;
  }

  void LayerMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                    int passes, double traced_wall_s,
                    const std::vector<double>&, Metrics& m) override {
    DriverMetrics(layers, passes, traced_wall_s, m);
    CoreMetrics(layers, passes, traced_wall_s, m);
  }
};

// -------------------------------------------------------- file-seq-sharded

class FileSeqSharded final : public Workload {
 public:
  enum Variant { kSharded = 0, kSingle = 1, kNoCheckpoint = 2 };

  bool Prepare(uint64_t seed, const fs::path& work, Info& info) override {
    input_ = WriteEventFile(seed, 2, kSeqLines, /*timestamped=*/false,
                            work / "file-seq.txt");
    return PrepareCommon(seed, work, info);
  }

  int variants() const override { return 3; }

  PassStats Pass(int variant, Tally& tally, Tracing* tracing,
                 std::vector<double>& query_us) override {
    if (variant == kSingle) return SinglePass(tally);
    PassStats stats;
    const bool checkpointing = variant == kSharded;
    const int64_t t0 = NowNs();
    const fs::path dir = work_ / ("ckpt-" + std::to_string(++pass_no_));
    const SinkSpec spec = SpecOrDie(kSeqSink, seed_);
    std::vector<swsample::Sink> shards =
        OrDie(swsample::CreateShardedSinks(spec, kShards), "shards");
    std::vector<swsample::SinkSerializer> serializers =
        OrDie(swsample::MakeSinkSerializers(spec, kShards), "serializers");
    if (tracing != nullptr) {
      for (auto& serializer : serializers) {
        serializer = TracedSerializer(std::move(serializer), tracing->log, 0,
                                      &tracing->drive);
      }
    }
    swsample::CheckpointPolicy policy;
    policy.dir = dir.string();
    policy.every_items = kCheckpointEvery;
    if (checkpointing) tally.Check(FreshDir(dir), "create checkpoint dir");
    CheckpointWriter writer(policy, std::move(serializers));
    uint64_t commits = 0;
    writer.set_after_write([&commits](uint64_t) { ++commits; });
    swsample::ShardedStreamDriver::Options options;
    options.threads = kShards;
    options.chunk_items = kChunkItems;
    options.partition = swsample::ShardPartition::kChunks;
    const swsample::ShardedStreamDriver driver(options);
    std::vector<StreamSink*> sinks = swsample::SinkPointers(shards);
    std::vector<std::unique_ptr<TracedSink>> traced;
    if (tracing != nullptr) {
      for (uint64_t s = 0; s < kShards; ++s) {
        traced.push_back(std::make_unique<TracedSink>(
            *sinks[s], tracing->log, static_cast<uint32_t>(1 + s),
            Layer::kCore, &tracing->drive));
        sinks[s] = traced.back().get();
      }
    }
    std::vector<swsample::WindowSampler*> samplers =
        OrDie(swsample::SamplerPointers(shards), "sampler views");
    const int64_t t1 = NowNs();
    if (tracing != nullptr) {
      tracing->pass = tracing->log.Open(0, Layer::kPass, TraceLog::kNoParent);
      tracing->drive = tracing->log.Open(0, Layer::kDriver, tracing->pass);
    }
    auto report = driver.DriveFileCheckpointed(
        input_.path, /*timestamped=*/false, sinks,
        checkpointing ? &writer : nullptr, nullptr);
    if (tracing != nullptr) tracing->log.Close(tracing->drive);
    std::vector<swsample::Result<swsample::SamplerSnapshot>> snapshots;
    for (uint64_t q = 0; q < kFinalQueries; ++q) {
      snapshots.push_back(TimedQuery(tracing, query_us, [&] {
        return swsample::MergedSnapshot(samplers, seed_ + q);
      }));
    }
    const int64_t t2 = NowNs();
    if (tracing != nullptr) tracing->log.Close(tracing->pass);

    stats.setup_s = Seconds(t0, t1);
    stats.wall_s = Seconds(t1, t2);
    tally.Check(report.ok(),
                "file-seq-sharded drive: " + report.status().ToString());
    stats.items = report.ok() ? report.value().total.items : 0;
    tally.Check(stats.items == input_.count, "file-seq-sharded item count");
    for (const auto& merged : snapshots) {
      bool in_window = merged.ok() && merged.value().sample.size() == 16;
      if (merged.ok()) {
        for (const Item& item : merged.value().sample) {
          in_window = in_window &&
                      input_.last_ts - item.timestamp <
                          static_cast<Timestamp>(kSeqWindow);
        }
      }
      tally.Check(in_window, "merged snapshot failed, short, or outside the "
                             "last n arrivals: " + merged.status().ToString());
    }
    for (StreamSink* sink : swsample::SinkPointers(shards)) {
      stats.state_bytes += sink->RetainedBytes();
    }
    if (checkpointing) {
      const uint64_t expected = input_.count / kCheckpointEvery;
      tally.Ops(commits, commits == expected ? 0 : 1,
                "checkpoint commits: " + std::to_string(commits));
      CheckResume(dir, writer, expected * kCheckpointEvery, tally);
      tally.Check(writer.io_giveups() == 0, "checkpoint io give-ups");
    }
    if (tracing != nullptr && report.ok()) {
      Accumulate(report.value(), commits, dir, writer);
      last_state_bytes_ = stats.state_bytes;
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    return stats;
  }

  void LayerMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                    int passes, double traced_wall_s,
                    const std::vector<double>& rates, Metrics& m) override {
    DriverMetrics(layers, passes, traced_wall_s, m);
    CoreMetrics(layers, passes, traced_wall_s, m);
    m.Set("sharded.shard_busy_frac.max", Median(busy_max_), "frac");
    m.Set("sharded.shard_busy_frac.min", Median(busy_min_), "frac");
    m.Set("sharded.items_skew", Median(skew_), "ratio");
    m.Set("sharded.vs_single", rates[kSingle] > 0 ? rates[kSharded] /
                                                        rates[kSingle]
                                                  : 0.0,
          "ratio");
    const auto& serialize = layers[static_cast<size_t>(Layer::kSerialize)];
    m.Set("checkpoint.commits", static_cast<double>(commits_) / passes,
          "count");
    m.Set("checkpoint.serialize_ms.p50",
          Percentile(serialize.durations_s, 0.5) * 1e3, "ms");
    m.Set("checkpoint.serialize_ms.max", Max(serialize.durations_s) * 1e3,
          "ms");
    m.Set("checkpoint.bytes", static_cast<double>(checkpoint_bytes_),
          "bytes");
    m.Set("checkpoint.io_retries", static_cast<double>(io_retries_) / passes,
          "count");
    m.Set("checkpoint.cost_frac",
          rates[kNoCheckpoint] > 0 ? 1.0 - rates[kSharded] /
                                               rates[kNoCheckpoint]
                                   : 0.0,
          "frac");
  }

 private:
  /// The same file, unsplit sink and checkpoint cadence through the
  /// single-threaded StreamDriver: the base of sharded.vs_single.
  PassStats SinglePass(Tally& tally) {
    PassStats stats;
    const int64_t t0 = NowNs();
    const fs::path dir = work_ / ("ckpt-" + std::to_string(++pass_no_));
    const SinkSpec spec = SpecOrDie(kSeqSink, seed_);
    swsample::Sink sink = OrDie(swsample::CreateSink(spec), "sink");
    swsample::CheckpointPolicy policy;
    policy.dir = dir.string();
    policy.every_items = kCheckpointEvery;
    tally.Check(FreshDir(dir), "create checkpoint dir");
    CheckpointWriter writer(
        policy, OrDie(swsample::MakeSinkSerializers(spec, 1), "serializers"));
    const StreamDriver driver;
    const int64_t t1 = NowNs();
    auto report = driver.DriveFileCheckpointed(
        input_.path, /*timestamped=*/false, *sink.sink, &writer, nullptr);
    const std::vector<Item> sample = sink.sampler->Sample();
    const int64_t t2 = NowNs();
    stats.setup_s = Seconds(t0, t1);
    stats.wall_s = Seconds(t1, t2);
    tally.Check(report.ok(), "single drive: " + report.status().ToString());
    stats.items = report.ok() ? report.value().items : 0;
    tally.Check(stats.items == input_.count && sample.size() == 16,
                "single drive item count and sample size");
    std::error_code ec;
    fs::remove_all(dir, ec);
    return stats;
  }

  /// The last committed checkpoint must load at the expected position.
  static void CheckResume(const fs::path& dir, const CheckpointWriter& writer,
                          uint64_t expected_items, Tally& tally) {
    auto resumed = swsample::ShardedStreamDriver::ResumeFrom(dir.string());
    tally.Check(resumed.ok(), "ResumeFrom: " + resumed.status().ToString());
    if (!resumed.ok()) return;
    const uint64_t items = resumed.value().position.items;
    tally.Check(items == expected_items &&
                    items == writer.last_written_items() &&
                    resumed.value().sinks.size() == kShards,
                "resumed checkpoint at " + std::to_string(items) +
                    " items, expected " + std::to_string(expected_items));
  }

  void Accumulate(const swsample::ShardedDriveReport& report,
                  uint64_t commits, const fs::path& dir,
                  const CheckpointWriter& writer) {
    traced_batches_ += report.total.batches;
    traced_items_ += report.total.items;
    commits_ += commits;
    io_retries_ += writer.io_retries();
    checkpoint_bytes_ = DirBytes(dir);
    double lo = 1.0, hi = 0.0;
    uint64_t max_items = 0;
    for (const auto& shard : report.shards) {
      const double busy = shard.busy_seconds / report.total.seconds;
      lo = std::min(lo, busy);
      hi = std::max(hi, busy);
      max_items = std::max(max_items, shard.items);
    }
    busy_min_.push_back(lo);
    busy_max_.push_back(hi);
    skew_.push_back(static_cast<double>(max_items) * report.shards.size() /
                    report.total.items);
  }

  uint64_t pass_no_ = 0;
  uint64_t commits_ = 0;
  uint64_t io_retries_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  std::vector<double> busy_min_, busy_max_, skew_;
};

// ------------------------------------------------------------- estimate-ts

class EstimateTs final : public Workload {
 public:
  bool Prepare(uint64_t seed, const fs::path& work, Info& info) override {
    input_ = MakeTsItems(seed, 3, kEstimateItems, 4.0, /*poisson=*/true);
    return PrepareCommon(seed, work, info);
  }

  PassStats Pass(int, Tally& tally, Tracing* tracing,
                 std::vector<double>& query_us) override {
    PassStats stats;
    const int64_t t0 = NowNs();
    const SinkSpec spec = SpecOrDie(kEstimateSink, seed_);
    swsample::Sink sink = OrDie(swsample::CreateSink(spec), "estimator");
    const StreamDriver driver;
    std::optional<TracedSink> traced;
    if (tracing != nullptr) {
      traced.emplace(*sink.sink, tracing->log, 0, Layer::kApps,
                     &tracing->drive);
    }
    StreamSink& target = traced ? static_cast<StreamSink&>(*traced)
                                : *sink.sink;
    const std::span<const Item> items(input_.items);
    const int64_t t1 = NowNs();
    if (tracing != nullptr) {
      tracing->pass = tracing->log.Open(0, Layer::kPass, TraceLog::kNoParent);
    }
    uint64_t delivered = 0, batches = 0, bad_windows = 0, queries = 0;
    size_t oldest_active = 0;
    while (delivered < items.size()) {
      const size_t n = std::min<size_t>(kEstimateEvery,
                                        items.size() - delivered);
      if (tracing != nullptr) {
        tracing->drive = tracing->log.Open(0, Layer::kDriver, tracing->pass);
      }
      batches += driver.Drive(items.subspan(delivered, n), target).batches;
      if (tracing != nullptr) tracing->log.Close(tracing->drive);
      delivered += n;
      const swsample::EstimateReport estimate = TimedQuery(
          tracing, query_us, [&] { return sink.estimator->Estimate(); });
      ++queries;
      // Exact active count from the benchmark's own input.
      const Timestamp now = items[delivered - 1].timestamp;
      while (now - items[oldest_active].timestamp >= kTsWindow) {
        ++oldest_active;
      }
      const double exact = static_cast<double>(delivered - oldest_active);
      if (!(std::fabs(estimate.window_size - exact) <=
            spec.count_eps * exact)) {
        ++bad_windows;
      }
    }
    const int64_t t2 = NowNs();
    if (tracing != nullptr) tracing->log.Close(tracing->pass);
    stats.setup_s = Seconds(t0, t1);
    stats.wall_s = Seconds(t1, t2);
    stats.items = delivered;
    tally.Ops(queries, bad_windows,
              "estimate-ts: " + std::to_string(bad_windows) +
                  " estimates outside the (1 +/- eps) window bound");
    stats.state_bytes = sink.sink->RetainedBytes();
    if (tracing != nullptr) {
      traced_batches_ += batches;
      traced_items_ += delivered;
      last_state_bytes_ = stats.state_bytes;
    }
    return stats;
  }

  void LayerMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                    int passes, double traced_wall_s,
                    const std::vector<double>&, Metrics& m) override {
    DriverMetrics(layers, passes, traced_wall_s, m);
    SinkLayerMetrics(layers[static_cast<size_t>(Layer::kApps)], "apps",
                     passes, traced_wall_s, m);
    const auto& query = layers[static_cast<size_t>(Layer::kQuery)];
    m.Set("apps.estimate_us.p50", Percentile(query.durations_s, 0.5) * 1e6,
          "us");
    m.Set("apps.estimate_us.p99", Percentile(query.durations_s, 0.99) * 1e6,
          "us");
    m.Set("apps.state_bytes", static_cast<double>(last_state_bytes_),
          "bytes");
  }
};

// ------------------------------------------------------------ keyed-budget

class KeyedBudget final : public Workload {
 public:
  bool Prepare(uint64_t seed, const fs::path& work, Info& info) override {
    input_ = MakeTsItems(seed, 4, kKeyedItems, 4.0, /*poisson=*/false);
    return PrepareCommon(seed, work, info);
  }

  PassStats Pass(int, Tally& tally, Tracing* tracing,
                 std::vector<double>& query_us) override {
    PassStats stats;
    const int64_t t0 = NowNs();
    const fs::path dir = work_ / ("spill-" + std::to_string(++pass_no_));
    tally.Check(FreshDir(dir), "create spill dir");
    swsample::KeyedEngineOptions options;
    options.spec = SpecOrDie(kKeyedSink, seed_);
    options.idle_ttl = kKeyedTtl;
    options.memory_budget_bytes = kKeyedBudget;
    options.spill_dir = dir.string();
    std::unique_ptr<swsample::KeyedWindowEngine> engine = OrDie(
        swsample::KeyedWindowEngine::Create(options), "keyed engine");
    const StreamDriver driver;
    std::optional<TracedSink> traced;
    if (tracing != nullptr) {
      traced.emplace(*engine, tracing->log, 0, Layer::kKeyed,
                     &tracing->drive);
    }
    StreamSink& target = traced ? static_cast<StreamSink&>(*traced)
                                : *engine;
    Rng query_keys(seed_, 5);
    const std::span<const Item> items(input_.items);
    const int64_t t1 = NowNs();
    if (tracing != nullptr) {
      tracing->pass = tracing->log.Open(0, Layer::kPass, TraceLog::kNoParent);
    }
    uint64_t delivered = 0, batches = 0, queries = 0, bad_queries = 0;
    while (delivered < items.size()) {
      const size_t n = std::min<size_t>(kKeyedQueryEvery,
                                        items.size() - delivered);
      if (tracing != nullptr) {
        tracing->drive = tracing->log.Open(0, Layer::kDriver, tracing->pass);
      }
      batches += driver.Drive(items.subspan(delivered, n), target).batches;
      if (tracing != nullptr) tracing->log.Close(tracing->drive);
      // A Zipf-drawn key: the key of a uniformly chosen item of the chunk
      // just delivered, so it is live or spilled, never unknown.
      const uint64_t key = items[delivered + query_keys.Below(n)].value;
      delivered += n;
      auto sample = TimedQuery(tracing, query_us,
                               [&] { return engine->SampleKey(key); });
      ++queries;
      bool good = sample.ok() && !sample.value().empty();
      if (sample.ok()) {
        for (const Item& item : sample.value()) {
          good = good && item.value == key &&
                 engine->now() - item.timestamp < kTsWindow;
        }
      }
      if (!good) ++bad_queries;
    }
    const int64_t t2 = NowNs();
    if (tracing != nullptr) tracing->log.Close(tracing->pass);
    stats.setup_s = Seconds(t0, t1);
    stats.wall_s = Seconds(t1, t2);
    stats.items = delivered;

    const swsample::KeyedEngineStats& s = engine->stats();
    tally.Ops(queries, bad_queries,
              "keyed-budget: " + std::to_string(bad_queries) +
                  " SampleKey calls failed or returned foreign/expired items");
    tally.Check(engine->status().ok(),
                "keyed status: " + engine->status().ToString());
    tally.Check(engine->health() == swsample::KeyedEngineHealth::kHealthy,
                "keyed health");
    tally.Check(s.peak_charged_bytes <= kKeyedBudget,
                "keyed peak charge over budget");
    tally.Ops(s.evictions + s.restores, s.io_giveups + s.restore_misses,
              "keyed io give-ups or restore misses");
    stats.state_bytes = s.peak_charged_bytes;
    if (tracing != nullptr) {
      traced_batches_ += batches;
      traced_items_ += delivered;
      passes_.push_back(s);
    }
    engine.reset();  // joins the restore reader before the dir goes
    std::error_code ec;
    fs::remove_all(dir, ec);
    return stats;
  }

  void LayerMetrics(const std::vector<TraceLog::LayerTimes>& layers,
                    int passes, double traced_wall_s,
                    const std::vector<double>&, Metrics& m) override {
    DriverMetrics(layers, passes, traced_wall_s, m);
    const double observe_s =
        layers[static_cast<size_t>(Layer::kKeyed)].total_s / passes;
    double evict_s = 0, restore_s = 0;
    uint64_t evictions = 0, restores = 0, prefetched = 0;
    for (const auto& s : passes_) {
      evict_s += s.evict_seconds;
      restore_s += s.restore_seconds;
      evictions += s.evictions;
      restores += s.restores;
      prefetched += s.prefetched_restores;
    }
    const double n = static_cast<double>(passes_.size());
    const swsample::KeyedEngineStats& last = passes_.back();
    m.Set("keyed.observe_s", observe_s, "s");
    m.Set("keyed.evict_s", evict_s / n, "s");
    m.Set("keyed.restore_s", restore_s / n, "s");
    m.Set("keyed.other_s", observe_s - (evict_s + restore_s) / n, "s");
    m.Set("keyed.evictions", evictions / n, "count");
    m.Set("keyed.restores", restores / n, "count");
    m.Set("keyed.expirations", static_cast<double>(last.expirations),
          "count");
    m.Set("keyed.spill_batches", static_cast<double>(last.spill_batches),
          "count");
    m.Set("keyed.evict_us_avg", evictions ? evict_s / evictions * 1e6 : 0.0,
          "us");
    m.Set("keyed.restore_us_avg",
          restores ? restore_s / restores * 1e6 : 0.0, "us");
    m.Set("keyed.prefetch_hit_frac",
          restores ? static_cast<double>(prefetched) / restores : 0.0,
          "frac");
    m.Set("keyed.live_keys", static_cast<double>(last.live_keys), "count");
    m.Set("keyed.spilled_keys", static_cast<double>(last.spilled_keys),
          "count");
    m.Set("keyed.peak_charged_mb", last.peak_charged_bytes / 1048576.0,
          "MB");
    m.Set("keyed.io_retries", static_cast<double>(last.io_retries), "count");
  }

 private:
  uint64_t pass_no_ = 0;
  std::vector<swsample::KeyedEngineStats> passes_;
};

// ------------------------------------------------------------------ runner

/// Every per-layer metric, so a workload that bypasses a layer reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"driver.self_s", "s"},
    {"driver.self_frac", "frac"},
    {"driver.lines_per_s", "1/s"},
    {"driver.batches", "count"},
    {"core.observe_s", "s"},
    {"core.observe_frac", "frac"},
    {"core.observe_us.p50", "us"},
    {"core.observe_us.p99", "us"},
    {"core.state_bytes", "bytes"},
    {"sharded.shard_busy_frac.max", "frac"},
    {"sharded.shard_busy_frac.min", "frac"},
    {"sharded.items_skew", "ratio"},
    {"sharded.vs_single", "ratio"},
    {"checkpoint.commits", "count"},
    {"checkpoint.serialize_ms.p50", "ms"},
    {"checkpoint.serialize_ms.max", "ms"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.io_retries", "count"},
    {"checkpoint.cost_frac", "frac"},
    {"apps.observe_s", "s"},
    {"apps.observe_frac", "frac"},
    {"apps.observe_us.p99", "us"},
    {"apps.estimate_us.p50", "us"},
    {"apps.estimate_us.p99", "us"},
    {"apps.state_bytes", "bytes"},
    {"keyed.observe_s", "s"},
    {"keyed.evict_s", "s"},
    {"keyed.restore_s", "s"},
    {"keyed.other_s", "s"},
    {"keyed.evictions", "count"},
    {"keyed.restores", "count"},
    {"keyed.expirations", "count"},
    {"keyed.spill_batches", "count"},
    {"keyed.evict_us_avg", "us"},
    {"keyed.restore_us_avg", "us"},
    {"keyed.prefetch_hit_frac", "frac"},
    {"keyed.live_keys", "count"},
    {"keyed.spilled_keys", "count"},
    {"keyed.peak_charged_mb", "MB"},
    {"keyed.io_retries", "count"},
    {"query.p50_us", "us"},
    {"query.p99_us", "us"},
    {"query.count", "count"},
    {"trace.overhead_frac", "frac"},
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "file-ts") return std::make_unique<FileTs>();
  if (name == "file-seq-sharded") return std::make_unique<FileSeqSharded>();
  if (name == "estimate-ts") return std::make_unique<EstimateTs>();
  if (name == "keyed-budget") return std::make_unique<KeyedBudget>();
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/// Runs passes of variants 0..variants-1 in turn until `seconds` have
/// passed (at least `min_rounds` rounds); returns the passes per variant.
std::vector<std::vector<PassStats>> RunPasses(
    Workload& workload, int variants, double seconds, int min_rounds,
    Tally& tally, Tracing* tracing, std::vector<double>& query_us) {
  std::vector<std::vector<PassStats>> out(variants);
  const int64_t start = NowNs();
  for (int round = 0;
       round < min_rounds || Seconds(start, NowNs()) < seconds; ++round) {
    for (int v = 0; v < variants; ++v) {
      std::vector<double> comparison_query_us;
      out[v].push_back(workload.Pass(v, tally, tracing,
                                     v == 0 ? query_us : comparison_query_us));
    }
  }
  return out;
}

std::vector<double> Rates(const std::vector<PassStats>& passes) {
  std::vector<double> rates;
  for (const PassStats& p : passes) rates.push_back(p.rate());
  return rates;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <file-ts|file-seq-sharded|"
                 "estimate-ts|keyed-budget> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const fs::path root = fs::current_path() / ".bench_build";
  // run.py removes this directory by the same name if the run dies.
  const fs::path work =
      ScratchBase(root) / ("perfbench-" + std::to_string(getpid()));
  if (!FreshDir(work)) {
    std::fprintf(stderr, "cannot create %s\n", work.c_str());
    return 1;
  }
  Info info;
  info.AddString("workload", args.workload);
  info.AddNumber("seed", static_cast<double>(args.seed));
  info.AddString("scratch_fs", FsType(work));
  if (!workload->Prepare(args.seed, work, info)) {
    std::fprintf(stderr, "cannot generate the input under %s\n",
                 work.c_str());
    std::error_code ec;
    fs::remove_all(work, ec);
    return 1;
  }

  Tally tally;
  Metrics metrics;
  std::vector<double> query_us;
  {
    // One unmeasured pass first, so page faults of first use and lazy
    // set-up are not timed; its output checks still count.
    std::vector<double> warmup_query_us;
    workload->Pass(0, tally, nullptr, warmup_query_us);
  }
  if (!args.trace) {
    const auto passes = RunPasses(*workload, 1, args.seconds, 3, tally,
                                  nullptr, query_us)[0];
    std::vector<double> setups;
    for (const PassStats& p : passes) setups.push_back(p.setup_s);
    metrics.Set("items_per_s", Median(Rates(passes)), "1/s");
    metrics.Set("setup_s", Median(setups), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Set("state_bytes",
                static_cast<double>(passes.back().state_bytes), "bytes");
    info.AddNumber("passes", static_cast<double>(passes.size()));
    std::string rates = "[";
    for (double rate : Rates(passes)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.4g", rates.size() > 1 ? ", " : "",
                    rate);
      rates += buf;
    }
    info.Add("pass_items_per_s", rates + "]");
  } else {
    // Untraced passes (every variant), then traced passes of the workload.
    const double untraced_share = workload->variants() > 1 ? 0.6 : 0.45;
    const auto untraced =
        RunPasses(*workload, workload->variants(),
                  args.seconds * untraced_share, 2, tally,
                  nullptr, query_us);
    std::vector<double> variant_rates;
    for (const auto& passes : untraced) {
      variant_rates.push_back(Median(Rates(passes)));
    }
    Tracing tracing;
    std::vector<double> traced_query_us;
    const auto traced =
        RunPasses(*workload, 1, args.seconds * (0.9 - untraced_share), 2,
                  tally,
                  &tracing, traced_query_us)[0];
    double traced_wall = 0.0;
    for (const PassStats& p : traced) traced_wall += p.wall_s;
    for (const auto& [name, unit] : kLayerMetrics) metrics.Set(name, 0, unit);
    workload->LayerMetrics(tracing.log.Summarize(),
                           static_cast<int>(traced.size()), traced_wall,
                           variant_rates, metrics);
    // Query latencies of the untraced passes: sub-microsecond to a few
    // microseconds, so their run-to-run spread on a shared host is too
    // wide for an end-to-end bound.
    metrics.Set("query.p50_us", Percentile(query_us, 0.5), "us");
    metrics.Set("query.p99_us", Percentile(query_us, 0.99), "us");
    metrics.Set("query.count", static_cast<double>(query_us.size()),
                "count");
    metrics.Set("trace.overhead_frac",
                1.0 - Median(Rates(traced)) / variant_rates[0], "frac");
    const fs::path traces = root / "traces";
    std::error_code ec;
    fs::create_directories(traces, ec);
    const fs::path csv = traces / (args.workload + "-seed" +
                                   std::to_string(args.seed) + ".csv");
    tally.Check(tracing.log.WriteCsv(csv.string()), "write trace");
    info.AddString("trace_csv", fs::relative(csv).string());
    info.AddNumber("spans", static_cast<double>(tracing.log.size()));
    info.AddNumber("traced_passes", static_cast<double>(traced.size()));
    info.AddNumber("untraced_passes",
                   static_cast<double>(untraced[0].size()));
  }
  info.AddNumber("queries", static_cast<double>(query_us.size()));
  info.AddNumber("failed_ops_frac",
                 static_cast<double>(tally.failed()) / tally.attempted());
  std::error_code ec;
  fs::remove_all(work, ec);

  std::string info_json = "{\"info\": {";
  for (size_t i = 0; i < info.fields.size(); ++i) {
    info_json += (i ? ", \"" : "\"") + info.fields[i].first +
                 "\": " + info.fields[i].second;
  }
  std::printf("%s}}\n", info_json.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      tally.failed() == 0 ? "true" : "false", tally.attempted(),
      tally.failed(), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
