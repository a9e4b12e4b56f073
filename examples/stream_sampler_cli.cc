// Copyright (c) swsample authors. Licensed under the MIT license.
//
// stream_sampler_cli: pump a real stream from stdin (or a file) through
// any registered sampler OR any registered estimator over any compatible
// sampling substrate (Theorem 5.1 at the command line) — optionally one
// independent window PER KEY through the multi-tenant keyed engine.
//
//   build/examples/stream_sampler_cli [options] [<window> <k>]
//
//   --sink=<spec>        the sink to run, in the unified SinkSpec grammar
//                        name[@substrate][,key=value]... — e.g.
//                        "bop-seq-swor,n=1000000,k=64" or
//                        "ams-fk@bop-ts-single,t=60,r=256". When given,
//                        the positionals are optional and override the
//                        spec's window (n or t) and k/r.
//   --algo=<name>        alias: sampler to run (default bop-seq-swor);
//                        builds the same SinkSpec as --sink=<name>,...
//   --estimator=<name>   alias: run an estimator instead of a raw sampler
//   --substrate=<name>   alias: sampling substrate for --estimator
//                        (default: the estimator's registered default)
//   --list-sinks         every registered sink — samplers and estimators —
//                        in one listing
//   --list               every registered sampler with a summary
//   --list-estimators    every registered estimator with its compatible
//                        substrates
//   --keys[=<shift>]     keyed multi-tenant mode: an independent window
//                        per key, key = value >> shift (default 0: the
//                        raw value is the tenant id)
//   --key-budget=<b>     global memory budget for keyed mode; accepts
//                        K/M/G suffixes (e.g. 64M). Requires --spill-dir;
//                        coldest keys spill to disk when the budget binds
//   --key-ttl=<t>        drop keys idle longer than t timestamp units
//   --spill-dir=<d>      directory for keyed-mode eviction spill files
//   --key-strict-budget  enforce the keyed memory budget after every item
//                        instead of after every per-key micro-batch (the
//                        batched default); per-item cost
//   --key-sync-restore   restore spilled keys synchronously instead of
//                        prefetching their file bytes on the background
//                        reader thread (results are identical either way)
//   --file=<path>        read events from a file instead of stdin
//   --workload=<spec>    synthesize the stream instead of reading one: a
//                        seeded workload generator in the grammar of
//                        stream/workload.h — e.g. "constant@zipf,rate=8",
//                        "poisson,lambda=6,skew=12", "churn,t=60".
//                        Incompatible with --file and checkpointing
//   --items=<n>          events to synthesize for --workload (default 1e6)
//   --record-trace=<p>   write the synthesized stream to a compact binary
//                        trace at p (replayable bit-identically later)
//   --replay-trace=<p>   read the stream from a trace file instead of
//                        generating (same restrictions as --workload)
//   --batch=<n>          ingestion batch size (default 1024; 0 = per item)
//   --seed=<n>           RNG seed (default 0x5eed); equal seeds reproduce
//                        runs exactly
//   --threads=<n>        worker threads for sharded ingestion (default 1 =
//                        the single-threaded driver)
//   --shards=<n>         sink replicas for sharded ingestion (default:
//                        one per thread); sequence windows must divide
//                        evenly by the shard count
//   --partition=<mode>   chunks | keyhash (default: keyhash for timestamp
//                        sinks, for estimators whose merge needs
//                        key-disjoint shards, e.g. ams-fk/ccm-entropy,
//                        and ALWAYS for keyed mode; chunks otherwise)
//   --checkpoint-dir=<d> persist periodic checkpoints (sink state + a
//                        manifest, atomic write-rename) into directory d
//   --checkpoint-every=<n>  checkpoint every n ingested events (default
//                        1000000; taken at the next batch boundary)
//   --resume             restore from --checkpoint-dir and continue: the
//                        input must REPLAY the stream from the beginning
//                        (the already-ingested prefix is skipped); the
//                        final report is bit-identical to a run that was
//                        never interrupted
//   --kill-after=<n>     testing hook: SIGKILL this process right after
//                        the first checkpoint at >= n events (the CI
//                        crash/resume smoke test drives this)
//   --moment=<k>         frequency moment for --estimator=ams-fk (default 2)
//   --vertices=<v>       vertex universe for --estimator=buriol-triangles
//   --q=<q>              quantile for --estimator=dkw-quantile (default 0.5)
//   --report=<n>         progress line (events, memory) to stderr at the
//                        first batch boundary past every n events
//                        (default 10000; 0 = none); it never changes the
//                        sample or estimate a run ends with
//   <window>             n (items) for sequence samplers/substrates, t0
//                        (time units) for timestamp ones
//   <k>                  samples to maintain / estimator units r
//
// Input: one event per line. Sequence mode: "<value>"; timestamp mode:
// "<timestamp> <value>" with non-decreasing integer timestamps. Blank
// lines are skipped; malformed lines abort with the offending line number.
// The final sample (or estimate), memory footprint and ingestion
// throughput go to stdout.
//
//   --algo=bop-seq-swor 1000000 64:  a uniform 64-subset of the last
//   million events from ~400 words of state, however long the stream runs.
//
//   --estimator=ams-fk --substrate=bop-ts-single 60 256:  the self-join
//   size F2 of the last 60 seconds, window size unknowable, O(r log n).
//
//   --sink=bop-ts-single,t=60 --keys --key-ttl=3600:  one window of the
//   last 60 seconds PER VALUE, tenants dropped after an idle hour.
//
// Keyed mode is stats-only at the end of the stream (per-key queries are
// a library surface: KeyedWindowEngine::SampleKey/EstimateKey) and is
// incompatible with checkpointing — the engine's own spill files are its
// persistence story.

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/sink_spec.h"
#include "core/api.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/failpoint.h"
#include "util/file_ops.h"

using namespace swsample;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sink=<spec> | --algo=<name> | "
               "--estimator=<name> [--substrate=<name>]] "
               "[--keys[=<shift>] [--key-budget=<b> --spill-dir=<d>] "
               "[--key-ttl=<t>] [--key-strict-budget] [--key-sync-restore] "
               "[--key-degrade=block|shed] [--key-io-retries=<n>]] "
               "[--failpoints=<site>=<class>[,k=v]...[;...]] "
               "[--file=<path> | --workload=<spec> "
               "[--items=<n>] [--record-trace=<p>] | --replay-trace=<p>] "
               "[--batch=<n>] "
               "[--seed=<n>] [--moment=<k>] [--vertices=<v>] [--q=<q>] "
               "[--report=<n>] [--threads=<n>] [--shards=<n>] "
               "[--partition=chunks|keyhash] [--checkpoint-dir=<d> "
               "[--checkpoint-every=<n>] [--resume]] [<window> <k>]\n"
               "       %s --list-sinks | --list | --list-estimators\n"
               "  sequence mode reads lines \"<value>\"; timestamp mode\n"
               "  reads \"<timestamp> <value>\"\n"
               "  sinks: %s\n",
               argv0, argv0, RegisteredSinkNames().c_str());
}

void ListSamplers() {
  std::printf("registered samplers:\n");
  for (const SinkInfo& info : RegisteredSinks(SinkKind::kSampler)) {
    std::printf("  %-20s %-9s %s\n", info.name,
                info.model == WindowModel::kSequence ? "sequence"
                                                     : "timestamp",
                info.summary);
  }
}

void ListEstimators() {
  std::printf("registered estimators:\n");
  for (const SinkInfo& info : RegisteredSinks(SinkKind::kEstimator)) {
    std::printf("  %-17s %-10s %s\n", info.name, info.metric, info.summary);
    std::printf("  %-17s   default substrate %s; compatible:", "",
                info.default_substrate);
    for (const char* substrate : CompatibleSubstrates(info)) {
      std::printf(" %s", substrate);
    }
    std::printf("\n");
  }
}

void ReportSample(WindowSampler& sampler, uint64_t events) {
  auto sample = sampler.Sample();
  std::printf("events=%" PRIu64 " memory=%" PRIu64 " words sample=[", events,
              sampler.MemoryWords());
  for (size_t i = 0; i < sample.size(); ++i) {
    std::printf("%s%" PRIu64, i ? " " : "", sample[i].value);
  }
  std::printf("]\n");
}

void ReportEstimate(WindowEstimator& estimator, uint64_t events) {
  EstimateReport report = estimator.Estimate();
  std::printf("events=%" PRIu64 " memory=%" PRIu64
              " words %s=%.6g window=%.6g support=%" PRIu64 "\n",
              events, estimator.MemoryWords(), report.metric.c_str(),
              report.value, report.window_size, report.support);
}

/// Closes the --file input when main returns.
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// Checkpoint/resume flags shared by the single and sharded paths.
struct CheckpointRun {
  std::string dir;            // --checkpoint-dir; empty = disabled
  uint64_t every = 1000000;   // --checkpoint-every
  bool resume = false;        // --resume
  uint64_t kill_after = 0;    // --kill-after testing hook
};

/// Installs the --kill-after crash-injection hook on a writer.
void InstallKillHook(CheckpointWriter& writer, uint64_t kill_after) {
  if (kill_after == 0) return;
  writer.set_after_write([kill_after](uint64_t items) {
    if (items >= kill_after) {
      std::fprintf(stderr,
                   "--kill-after: SIGKILL after checkpoint at %" PRIu64
                   " events\n",
                   items);
      std::raise(SIGKILL);
    }
  });
}

/// Everything the sharded execution path needs from main's flag parse.
struct ShardedRun {
  SinkSpec spec;
  SinkKind kind = SinkKind::kSampler;
  // The event input main opened: stdin or --file.
  std::FILE* input = stdin;
  std::string source = "stdin";
  // --workload/--replay-trace: a pre-materialized stream to drive instead
  // of parsing the input (checkpointing is refused in main for these).
  const std::vector<Item>* items = nullptr;
  uint64_t threads = 1;
  uint64_t shards = 1;
  std::string partition;  // "", "chunks", or "keyhash"
  uint64_t batch = 1024;
  uint64_t seed = 0;
  CheckpointRun checkpoint;
};

/// Drives the stream through N replicas on worker threads and prints the
/// merged sample/estimate plus per-shard throughput. Returns the process
/// exit code.
int RunSharded(const ShardedRun& run, bool timestamped) {
  // Fresh shards come from the sink factory, resumed ones from the
  // checkpoint; either way the driver sees StreamSink* views and the merge
  // sees typed views.
  std::vector<Sink> shards;
  ResumedCheckpoint resumed;  // --resume: restored state + skip position
  const bool want_estimators = run.kind == SinkKind::kEstimator;
  if (run.checkpoint.resume) {
    auto loaded = LoadCheckpoint(run.checkpoint.dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    resumed = std::move(loaded).ValueOrDie();
    const SinkSpec& held = resumed.shards[0].spec;
    const bool held_estimators = resumed.shards[0].sink.estimator != nullptr;
    if (want_estimators != held_estimators ||
        resumed.sinks.size() != run.shards) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds %zu %s shard(s), but "
                   "the flags request %" PRIu64 " %s shard(s)\n",
                   run.checkpoint.dir.c_str(), resumed.sinks.size(),
                   held_estimators ? "estimator" : "sampler", run.shards,
                   want_estimators ? "estimator" : "sampler");
      return 2;
    }
    if (held.name != run.spec.name) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds \"%s\", but the flags "
                   "request \"%s\"\n",
                   run.checkpoint.dir.c_str(), held.name.c_str(),
                   run.spec.name.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "resume: restored %s (%" PRIu64
                 " shard(s)) at %" PRIu64 " events; the checkpoint's "
                 "configuration is authoritative\n",
                 held.name.c_str(), run.shards, resumed.position.items);
    for (RestoredSink& shard : resumed.shards) {
      shards.push_back(std::move(shard.sink));
    }
  } else {
    auto created = CreateShardedSinks(run.spec, run.shards);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    shards = std::move(created).ValueOrDie();
  }
  std::vector<StreamSink*> sinks = SinkPointers(shards);
  std::vector<WindowSampler*> sampler_views;
  std::vector<WindowEstimator*> estimator_views;
  if (want_estimators) {
    estimator_views = EstimatorPointers(shards).ValueOrDie();
  } else {
    sampler_views = SamplerPointers(shards).ValueOrDie();
  }
  // Sharded output only exists through the merge surface, so refuse
  // non-mergeable sinks up front instead of after ingesting the stream.
  bool needs_key_disjoint = false;
  if (want_estimators) {
    if (estimator_views[0]->merge_kind() == EstimateMergeKind::kNone) {
      std::fprintf(stderr,
                   "%s is not merge-capable; run it single-threaded "
                   "(--threads=1)\n",
                   run.spec.name.c_str());
      return 2;
    }
    needs_key_disjoint =
        MergeNeedsKeyDisjointShards(estimator_views[0]->merge_kind());
  } else if (!sampler_views[0]->mergeable()) {
    std::fprintf(stderr,
                 "%s is not merge-capable; run it single-threaded "
                 "(--threads=1)\n",
                 run.spec.name.c_str());
    return 2;
  }

  ShardedStreamDriver::Options options;
  options.threads = run.threads;
  // --batch=0 selects the per-item slow path in the single-threaded
  // driver; chunks are the sharded transfer unit, so keep them batched.
  options.chunk_items = run.batch == 0 ? 1024 : run.batch;
  // Default partitioning: key-hash whenever the merge algebra needs
  // key-disjoint shards (F_k, entropy) or the window model is
  // timestamp-based; round-robin chunks otherwise. An explicit
  // --partition wins (and owns the statistical consequences).
  options.partition =
      run.partition.empty()
          ? (timestamped || needs_key_disjoint ? ShardPartition::kKeyHash
                                               : ShardPartition::kChunks)
          : (run.partition == "keyhash" ? ShardPartition::kKeyHash
                                        : ShardPartition::kChunks);
  if (options.partition == ShardPartition::kKeyHash && !timestamped) {
    std::fprintf(stderr,
                 "note: key-hash sharding of a sequence window assumes "
                 "near-uniform key load; for skewed keys prefer a "
                 "timestamp substrate (e.g. --substrate=bop-ts-single)\n");
  }
  ShardedStreamDriver driver(options);

  std::optional<CheckpointWriter> writer;
  if (!run.checkpoint.dir.empty()) {
    CheckpointPolicy policy;
    policy.dir = run.checkpoint.dir;
    policy.every_items = run.checkpoint.every;
    // On resume the checkpoint's own (name, config) pairs keep stamping
    // the envelopes, so flag drift cannot corrupt later checkpoints; the
    // resumed position also re-seeds the every-N cadence.
    std::vector<SinkSerializer> serializers;
    if (run.checkpoint.resume) {
      serializers = SerializersFor(resumed);
    } else {
      auto made = MakeSinkSerializers(run.spec, run.shards);
      if (!made.ok()) {
        std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
        return 1;
      }
      serializers = std::move(made).ValueOrDie();
    }
    writer.emplace(policy, std::move(serializers), resumed.position.items);
    InstallKillHook(*writer, run.checkpoint.kill_after);
  }
  const CheckpointManifest* resume_pos =
      run.checkpoint.resume ? &resumed.position : nullptr;
  Result<ShardedDriveReport> result =
      run.items != nullptr
          ? driver.Drive(*run.items, sinks)
          : driver.DriveLines(run.input, run.source, timestamped, sinks,
                              writer ? &*writer : nullptr, resume_pos);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const ShardedDriveReport& report = result.value();
  // Stream totals include the prefix a resumed run skipped — minus the
  // checkpoint's pending router items, which that prefix already counts
  // but which are delivered (and counted) by this run.
  uint64_t resumed_pending = 0;
  for (const auto& buffer : resumed.position.pending) {
    resumed_pending += buffer.size();
  }
  const uint64_t total_events =
      report.total.items + resumed.position.items - resumed_pending;
  std::fprintf(stderr,
               "sink=%s shards=%" PRIu64 " threads=%" PRIu64
               " partition=%s items=%" PRIu64
               " aggregate=%.2fM items/s\n",
               sinks[0]->name(), run.shards, run.threads,
               options.partition == ShardPartition::kKeyHash ? "keyhash"
                                                             : "chunks",
               total_events, report.total.items_per_sec / 1e6);
  if (report.total.io_retries > 0 || report.total.io_giveups > 0) {
    std::fprintf(stderr, "checkpoint: io_retries=%" PRIu64
                 " io_giveups=%" PRIu64 "\n",
                 report.total.io_retries, report.total.io_giveups);
  }
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReport& shard = report.shards[s];
    std::fprintf(stderr,
                 "  shard %zu: items=%" PRIu64 " memory=%" PRIu64
                 " words busy=%.2fM items/s\n",
                 s, shard.items, shard.memory_words,
                 shard.items_per_sec / 1e6);
  }
  if (want_estimators) {
    auto merged = MergedEstimate(estimator_views);
    if (!merged.ok()) {
      std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
      return 1;
    }
    const EstimateReport& estimate = merged.value();
    std::printf("events=%" PRIu64 " memory=%" PRIu64
                " words %s=%.6g window=%.6g support=%" PRIu64 "\n",
                total_events, report.total.memory_words,
                estimate.metric.c_str(), estimate.value,
                estimate.window_size, estimate.support);
    return 0;
  }
  auto merged = MergedSnapshot(sampler_views, run.seed ^ 0x5eedful);
  if (!merged.ok()) {
    std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
    return 1;
  }
  std::printf("events=%" PRIu64 " memory=%" PRIu64 " words sample=[",
              total_events, report.total.memory_words);
  for (size_t i = 0; i < merged.value().sample.size(); ++i) {
    std::printf("%s%" PRIu64, i ? " " : "", merged.value().sample[i].value);
  }
  std::printf("]\n");
  return 0;
}

/// Keyed multi-tenant flags (--keys and friends).
struct KeyedRun {
  bool enabled = false;
  uint64_t key_shift = 0;       // --keys=<shift>
  uint64_t budget_bytes = 0;    // --key-budget
  Timestamp idle_ttl = 0;       // --key-ttl
  std::string spill_dir;        // --spill-dir
  bool strict_budget = false;   // --key-strict-budget
  bool sync_restore = false;    // --key-sync-restore
  // --key-degrade: what a spill-outage does to the engine (block = latch,
  // shed = drop coldest keys and keep serving).
  KeyedDegradeMode degrade = KeyedDegradeMode::kBlock;
  uint64_t io_retries = 0;      // --key-io-retries; 0 = policy default
};

/// Drives the stream through one keyed engine per shard (key-hash
/// partitioned) — or a single engine for --threads=1 — and prints the
/// aggregated multi-tenant stats. Returns the process exit code.
int RunKeyed(const SinkSpec& spec, const KeyedRun& keyed,
             const ShardedRun& run, bool timestamped, uint64_t report_every) {
  KeyedEngineOptions options;
  options.spec = spec;
  options.key_shift = keyed.key_shift;
  options.memory_budget_bytes = keyed.budget_bytes;
  options.idle_ttl = keyed.idle_ttl;
  options.spill_dir = keyed.spill_dir;
  options.strict_budget = keyed.strict_budget;
  options.async_restore = !keyed.sync_restore;
  options.degrade = keyed.degrade;
  if (keyed.io_retries > 0) {
    options.io_retry.max_attempts = static_cast<uint32_t>(keyed.io_retries);
  }

  const bool sharded = run.threads > 1 || run.shards > 1;
  std::vector<std::unique_ptr<KeyedWindowEngine>> engines;
  uint64_t total_events = 0;
  if (sharded) {
    auto created = CreateKeyedEngines(options, run.shards);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    engines = std::move(created).ValueOrDie();
    ShardedStreamDriver::Options driver_options;
    driver_options.threads = run.threads;
    driver_options.chunk_items = run.batch == 0 ? 1024 : run.batch;
    // Keys must be whole: every arrival of a key has to reach the engine
    // that owns it, so keyed sharding is always key-hash partitioned, and
    // the router hashes the SHIFTED tenant id so --keys=<shift> keeps
    // each folded key on one engine.
    driver_options.partition = ShardPartition::kKeyHash;
    driver_options.key_shift = keyed.key_shift;
    ShardedStreamDriver driver(driver_options);
    std::vector<StreamSink*> sinks = SinkPointers(engines);
    auto result =
        run.items != nullptr
            ? driver.Drive(*run.items, sinks)
            : driver.DriveLines(run.input, run.source, timestamped, sinks);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    total_events = result.value().total.items;
    std::fprintf(stderr,
                 "sink=keyed-engine(%s) shards=%" PRIu64 " threads=%" PRIu64
                 " partition=keyhash items=%" PRIu64
                 " aggregate=%.2fM items/s\n",
                 FormatSinkSpec(spec).c_str(), run.shards, run.threads,
                 total_events, result.value().total.items_per_sec / 1e6);
  } else {
    auto created = KeyedWindowEngine::Create(options);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    engines.push_back(std::move(created).ValueOrDie());
    StreamDriver::Options driver_options;
    driver_options.batch_size = run.batch;
    StreamDriver driver(driver_options);
    KeyedWindowEngine& engine = *engines[0];
    auto progress = [&engine](uint64_t items) {
      const KeyedEngineStats& stats = engine.stats();
      std::fprintf(stderr,
                   "events=%" PRIu64 " live_keys=%" PRIu64
                   " spilled=%" PRIu64 " charged=%" PRIu64 " bytes\n",
                   items, stats.live_keys, stats.spilled_keys,
                   stats.charged_bytes);
    };
    Result<DriveReport> result =
        run.items != nullptr
            ? Result<DriveReport>(driver.Drive(*run.items, engine))
            : driver.DriveLines(run.input, run.source, timestamped, engine,
                                nullptr, nullptr, progress, report_every);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    total_events = result.value().items;
    std::fprintf(stderr,
                 "sink=keyed-engine(%s) items=%" PRIu64
                 " throughput=%.2fM items/s\n",
                 FormatSinkSpec(spec).c_str(), total_events,
                 result.value().items_per_sec / 1e6);
  }

  // A spill/restore I/O failure in block mode latches into the engine
  // status instead of aborting ingestion; surface it as a run failure
  // here. Shed mode never latches — its outage shows up as a degraded
  // health state plus drop accounting, reported (and turned into a
  // non-zero exit) below.
  KeyedEngineStats total;
  KeyedEngineHealth worst = KeyedEngineHealth::kHealthy;
  bool latched = false;
  for (const auto& engine : engines) {
    if (!engine->status().ok()) {
      std::fprintf(stderr, "%s\n", engine->status().ToString().c_str());
      latched = true;
    }
    const KeyedEngineStats& stats = engine->stats();
    total.live_keys += stats.live_keys;
    total.spilled_keys += stats.spilled_keys;
    total.evictions += stats.evictions;
    total.restores += stats.restores;
    total.expirations += stats.expirations;
    total.promotions += stats.promotions;
    total.charged_bytes += stats.charged_bytes;
    total.retained_bytes += stats.retained_bytes;
    total.io_retries += stats.io_retries;
    total.io_giveups += stats.io_giveups;
    total.degraded_drops += stats.degraded_drops;
    total.shed_bytes += stats.shed_bytes;
    total.quarantined_files += stats.quarantined_files;
    total.restore_misses += stats.restore_misses;
    // Degraded dominates recovering dominates healthy: any shard still in
    // an outage makes the whole run degraded.
    if (stats.health == KeyedEngineHealth::kDegraded ||
        (stats.health == KeyedEngineHealth::kRecovering &&
         worst == KeyedEngineHealth::kHealthy)) {
      worst = stats.health;
    }
  }
  total.health = worst;
  std::printf("events=%" PRIu64 " live_keys=%" PRIu64 " spilled_keys=%" PRIu64
              " evictions=%" PRIu64 " restores=%" PRIu64
              " expirations=%" PRIu64 " charged=%" PRIu64
              " bytes retained=%" PRIu64 " bytes\n",
              total_events, total.live_keys, total.spilled_keys,
              total.evictions, total.restores, total.expirations,
              total.charged_bytes, total.retained_bytes);
  std::printf("io_retries=%" PRIu64 " io_giveups=%" PRIu64
              " degraded_drops=%" PRIu64 " shed_bytes=%" PRIu64
              " quarantined_files=%" PRIu64 " restore_misses=%" PRIu64
              " health=%s\n",
              total.io_retries, total.io_giveups, total.degraded_drops,
              total.shed_bytes, total.quarantined_files, total.restore_misses,
              KeyedHealthName(worst));
  // Any of these means the printed results are lossy or the engine ended
  // the run inside an outage; succeed only on a clean (possibly retried)
  // run.
  if (latched || worst != KeyedEngineHealth::kHealthy ||
      total.io_giveups > 0 || total.degraded_drops > 0 ||
      total.restore_misses > 0) {
    std::fprintf(stderr,
                 "keyed: unhealthy run: health=%s io_giveups=%" PRIu64
                 " degraded_drops=%" PRIu64 " quarantined_files=%" PRIu64
                 " restore_misses=%" PRIu64 "\n",
                 KeyedHealthName(worst), total.io_giveups,
                 total.degraded_drops, total.quarantined_files,
                 total.restore_misses);
    return 1;
  }
  return 0;
}

/// atexit hook, installed only when failpoints were armed: dumps per-site
/// hit/fire counters so a fault drill shows exactly what was injected.
void PrintFailpointReport() {
  const std::string report = FailpointReport();
  if (!report.empty()) {
    std::fprintf(stderr, "failpoints:\n%s", report.c_str());
  }
}

// Parses a non-negative integer flag value; false on garbage, sign, or
// trailing characters.
bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseDouble(const char* s, double* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

// Parses a byte count with an optional K/M/G (binary) suffix: "64M".
bool ParseBytes(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s) return false;
  uint64_t shift = 0;
  if (*end == 'K' || *end == 'k') shift = 10;
  else if (*end == 'M' || *end == 'm') shift = 20;
  else if (*end == 'G' || *end == 'g') shift = 30;
  if (shift > 0) ++end;
  if (*end != '\0') return false;
  *out = static_cast<uint64_t>(v) << shift;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sink_text;  // --sink: the full SinkSpec grammar
  std::string algo;       // --algo alias (default applied when nothing set)
  std::string estimator_name;
  std::string substrate;
  std::string file;
  std::string workload;      // --workload generator spec
  uint64_t workload_items = 1000000;  // --items
  std::string record_trace;  // --record-trace
  std::string replay_trace;  // --replay-trace
  uint64_t batch = 1024;
  uint64_t seed = 0x5eed;
  uint64_t moment = 2;
  uint64_t vertices = 0;
  double q = 0.5;
  uint64_t report_every = 10000;
  uint64_t threads = 1;
  uint64_t shards = 0;
  std::string partition;
  CheckpointRun checkpoint;
  KeyedRun keyed;
  std::string failpoints;    // --failpoints; also SWSAMPLE_FAILPOINTS env
  bool failpoints_set = false;
  std::vector<const char*> positional;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t* u64_flag = nullptr;
    const char* u64_value = nullptr;
    if (std::strcmp(arg, "--list") == 0) {
      ListSamplers();
      return 0;
    } else if (std::strcmp(arg, "--list-estimators") == 0) {
      ListEstimators();
      return 0;
    } else if (std::strcmp(arg, "--list-sinks") == 0) {
      std::printf("%s", FormatSinkList().c_str());
      return 0;
    } else if (std::strncmp(arg, "--sink=", 7) == 0) {
      sink_text = arg + 7;
    } else if (std::strncmp(arg, "--algo=", 7) == 0) {
      algo = arg + 7;
    } else if (std::strncmp(arg, "--estimator=", 12) == 0) {
      estimator_name = arg + 12;
    } else if (std::strncmp(arg, "--substrate=", 12) == 0) {
      substrate = arg + 12;
    } else if (std::strcmp(arg, "--keys") == 0) {
      keyed.enabled = true;
    } else if (std::strncmp(arg, "--keys=", 7) == 0) {
      keyed.enabled = true;
      u64_flag = &keyed.key_shift;
      u64_value = arg + 7;
    } else if (std::strncmp(arg, "--key-budget=", 13) == 0) {
      if (!ParseBytes(arg + 13, &keyed.budget_bytes)) {
        std::fprintf(stderr,
                     "error: --key-budget expects bytes with an optional "
                     "K/M/G suffix, got \"%s\"\n",
                     arg + 13);
        return 2;
      }
    } else if (std::strncmp(arg, "--key-ttl=", 10) == 0) {
      uint64_t ttl = 0;
      if (!ParseU64(arg + 10, &ttl)) {
        std::fprintf(stderr,
                     "error: --key-ttl expects a non-negative integer, got "
                     "\"%s\"\n",
                     arg + 10);
        return 2;
      }
      keyed.idle_ttl = static_cast<Timestamp>(ttl);
    } else if (std::strcmp(arg, "--key-strict-budget") == 0) {
      keyed.strict_budget = true;
    } else if (std::strcmp(arg, "--key-sync-restore") == 0) {
      keyed.sync_restore = true;
    } else if (std::strncmp(arg, "--key-degrade=", 14) == 0) {
      const char* mode = arg + 14;
      if (std::strcmp(mode, "block") == 0) {
        keyed.degrade = KeyedDegradeMode::kBlock;
      } else if (std::strcmp(mode, "shed") == 0) {
        keyed.degrade = KeyedDegradeMode::kShed;
      } else {
        std::fprintf(stderr,
                     "error: --key-degrade expects block or shed, got "
                     "\"%s\"\n",
                     mode);
        return 2;
      }
    } else if (std::strncmp(arg, "--key-io-retries=", 17) == 0) {
      u64_flag = &keyed.io_retries;
      u64_value = arg + 17;
    } else if (std::strncmp(arg, "--failpoints=", 13) == 0) {
      failpoints = arg + 13;
      failpoints_set = true;
    } else if (std::strncmp(arg, "--spill-dir=", 12) == 0) {
      keyed.spill_dir = arg + 12;
    } else if (std::strncmp(arg, "--file=", 7) == 0) {
      file = arg + 7;
    } else if (std::strncmp(arg, "--workload=", 11) == 0) {
      workload = arg + 11;
    } else if (std::strncmp(arg, "--items=", 8) == 0) {
      u64_flag = &workload_items;
      u64_value = arg + 8;
    } else if (std::strncmp(arg, "--record-trace=", 15) == 0) {
      record_trace = arg + 15;
    } else if (std::strncmp(arg, "--replay-trace=", 15) == 0) {
      replay_trace = arg + 15;
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      u64_flag = &batch;
      u64_value = arg + 8;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      u64_flag = &seed;
      u64_value = arg + 7;
    } else if (std::strncmp(arg, "--moment=", 9) == 0) {
      u64_flag = &moment;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--vertices=", 11) == 0) {
      u64_flag = &vertices;
      u64_value = arg + 11;
    } else if (std::strncmp(arg, "--q=", 4) == 0) {
      if (!ParseDouble(arg + 4, &q)) {
        std::fprintf(stderr, "error: --q requires a number, got \"%s\"\n",
                     arg + 4);
        return 2;
      }
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      u64_flag = &report_every;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      u64_flag = &threads;
      u64_value = arg + 10;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      u64_flag = &shards;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--partition=", 12) == 0) {
      partition = arg + 12;
      if (partition != "chunks" && partition != "keyhash") {
        std::fprintf(stderr,
                     "error: --partition expects chunks or keyhash, got "
                     "\"%s\"\n",
                     partition.c_str());
        return 2;
      }
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      checkpoint.dir = arg + 17;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      u64_flag = &checkpoint.every;
      u64_value = arg + 19;
    } else if (std::strcmp(arg, "--resume") == 0) {
      checkpoint.resume = true;
    } else if (std::strncmp(arg, "--kill-after=", 13) == 0) {
      u64_flag = &checkpoint.kill_after;
      u64_value = arg + 13;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      Usage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
    if (u64_flag != nullptr && !ParseU64(u64_value, u64_flag)) {
      std::fprintf(stderr,
                   "error: %.*s expects a non-negative integer, got \"%s\"\n",
                   static_cast<int>(u64_value - arg - 1), arg, u64_value);
      return 2;
    }
  }
  // Arm fault injection before any sink or driver touches a file. The
  // failpoint seed forks off --seed so drills are reproducible; the env
  // var reaches runs the harness cannot pass flags to.
  {
    const Status armed = failpoints_set
                             ? ArmFailpoints(failpoints, seed)
                             : ArmFailpointsFromEnv(seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: %s\n", armed.ToString().c_str());
      return 2;
    }
    if (AnyFailpointArmed()) std::atexit(PrintFailpointReport);
  }
  if (!sink_text.empty() &&
      (!algo.empty() || !estimator_name.empty() || !substrate.empty())) {
    std::fprintf(stderr,
                 "error: --sink replaces --algo/--estimator/--substrate; "
                 "give one or the other\n");
    return 2;
  }
  if (!algo.empty() && !estimator_name.empty()) {
    std::fprintf(stderr, "error: --algo and --estimator are exclusive\n");
    return 2;
  }
  // --sink carries its own window/k keys, so the positionals become an
  // optional override there; every other mode still requires them.
  const bool have_positionals = positional.size() == 2;
  if (!have_positionals && (sink_text.empty() || !positional.empty())) {
    Usage(argv[0]);
    return 2;
  }
  int64_t window = 0;
  int64_t k = 0;
  if (have_positionals) {
    window = std::atoll(positional[0]);
    k = std::atoll(positional[1]);
    if (window < 1 || k < 1) {
      Usage(argv[0]);
      return 2;
    }
  }
  if ((checkpoint.resume || checkpoint.kill_after > 0) &&
      checkpoint.dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume/--kill-after require --checkpoint-dir\n");
    return 2;
  }

  // --workload / --replay-trace synthesize the stream up front; the
  // checkpoint cadence is defined over a PARSED input stream, so the two
  // modes don't compose (record a trace and replay the file instead).
  const bool synthesized = !workload.empty() || !replay_trace.empty();
  if (synthesized) {
    if (!workload.empty() && !replay_trace.empty()) {
      std::fprintf(stderr,
                   "error: --workload and --replay-trace are exclusive\n");
      return 2;
    }
    if (!file.empty()) {
      std::fprintf(stderr,
                   "error: --workload/--replay-trace replace --file\n");
      return 2;
    }
    if (!checkpoint.dir.empty() || checkpoint.resume) {
      std::fprintf(stderr,
                   "error: --workload/--replay-trace are incompatible with "
                   "checkpointing\n");
      return 2;
    }
  }
  if (!record_trace.empty() && workload.empty()) {
    std::fprintf(stderr, "error: --record-trace requires --workload\n");
    return 2;
  }
  std::vector<Item> stream_items;
  if (!replay_trace.empty()) {
    auto read = ReadTrace(replay_trace);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
      return 1;
    }
    stream_items = std::move(read).ValueOrDie();
    std::fprintf(stderr, "replay: %zu events from %s\n", stream_items.size(),
                 replay_trace.c_str());
  } else if (!workload.empty()) {
    auto gen = WorkloadGenerator::Create(workload, seed);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 2;
    }
    stream_items = std::move(gen).ValueOrDie()->Take(workload_items);
    if (!record_trace.empty()) {
      if (Status status = WriteTrace(record_trace, stream_items);
          !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "trace: %zu events recorded to %s\n",
                   stream_items.size(), record_trace.c_str());
    }
  }
  const std::vector<Item>* driven_items =
      synthesized ? &stream_items : nullptr;

  // Resolve the flags into ONE SinkSpec — the --sink grammar directly, or
  // the --algo/--estimator aliases lifted through the same structure.
  SinkSpec spec;
  if (!sink_text.empty()) {
    auto parsed = ParseSinkSpec(sink_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    spec = std::move(parsed).ValueOrDie();
  } else {
    spec.name = !estimator_name.empty() ? estimator_name
                : !algo.empty()         ? algo
                                        : "bop-seq-swor";
    spec.substrate = substrate;
    spec.seed = seed;
    spec.moment = static_cast<uint32_t>(moment);
    spec.num_vertices = static_cast<uint32_t>(vertices);
    spec.q = q;
  }
  if (have_positionals) {
    spec.window_n = static_cast<uint64_t>(window);
    spec.window_t = window;
    spec.k = static_cast<uint64_t>(k);
    spec.r = static_cast<uint64_t>(k);
  }
  auto kind = SinkKindOf(spec.name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 2;
  }
  auto model = SinkWindowModel(spec);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 2;
  }
  const bool timestamped = model.value() == WindowModel::kTimestamp;

  // The one event input of every run mode: stdin, or --file opened here.
  std::unique_ptr<std::FILE, FileCloser> opened;
  std::FILE* input = stdin;
  const std::string source = file.empty() ? "stdin" : file;
  if (!file.empty()) {
    auto f = OpenStdioFile("ingest.open", file);
    if (!f.ok()) {
      std::fprintf(stderr, "%s\n", f.status().ToString().c_str());
      return 1;
    }
    opened.reset(f.value());
    input = opened.get();
  }

  if (keyed.enabled) {
    // The keyed engine's persistence story is its own spill directory;
    // the flat single-sink checkpoint envelope does not describe it.
    if (!checkpoint.dir.empty() || checkpoint.resume) {
      std::fprintf(stderr,
                   "error: --keys is incompatible with --checkpoint-dir/"
                   "--resume (use --key-budget + --spill-dir)\n");
      return 2;
    }
    if (partition == "chunks") {
      std::fprintf(stderr,
                   "error: keyed sharding must keep each key on one "
                   "engine; --partition=chunks is incompatible with "
                   "--keys\n");
      return 2;
    }
    ShardedRun run;
    run.spec = spec;
    run.kind = kind.value();
    run.input = input;
    run.source = source;
    run.items = driven_items;
    run.threads = threads;
    run.shards = shards == 0 ? threads : shards;
    run.batch = batch;
    run.seed = seed;
    return RunKeyed(spec, keyed, run, timestamped, report_every);
  }
  if (!keyed.spill_dir.empty() || keyed.budget_bytes > 0 ||
      keyed.idle_ttl > 0 || keyed.degrade != KeyedDegradeMode::kBlock ||
      keyed.io_retries > 0) {
    std::fprintf(stderr,
                 "error: --key-budget/--key-ttl/--spill-dir/--key-degrade/"
                 "--key-io-retries require --keys\n");
    return 2;
  }

  if (threads > 1 || shards > 1) {
    ShardedRun run;
    run.spec = spec;
    run.kind = kind.value();
    run.input = input;
    run.source = source;
    run.items = driven_items;
    run.threads = threads;
    run.shards = shards == 0 ? threads : shards;
    run.partition = partition;
    run.batch = batch;
    run.seed = seed;
    run.checkpoint = checkpoint;
    return RunSharded(run, timestamped);
  }

  StreamDriver::Options options;
  options.batch_size = batch;
  StreamDriver driver(options);

  Sink created_sink;
  ResumedCheckpoint resumed;  // --resume: restored state + skip position
  if (checkpoint.resume) {
    auto loaded = LoadCheckpoint(checkpoint.dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    resumed = std::move(loaded).ValueOrDie();
    const SinkSpec& held = resumed.shards[0].spec;
    const bool want_estimator = kind.value() == SinkKind::kEstimator;
    const bool held_estimator = resumed.shards[0].sink.estimator != nullptr;
    if (want_estimator != held_estimator || resumed.sinks.size() != 1) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds %zu %s shard(s), but "
                   "the flags request one %s\n",
                   checkpoint.dir.c_str(), resumed.sinks.size(),
                   held_estimator ? "estimator" : "sampler",
                   want_estimator ? "estimator" : "sampler");
      return 2;
    }
    if (held.name != spec.name) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds \"%s\", but the flags "
                   "request \"%s\"\n",
                   checkpoint.dir.c_str(), held.name.c_str(),
                   spec.name.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "resume: restored %s at %" PRIu64 " events; the "
                 "checkpoint's configuration is authoritative\n",
                 held.name.c_str(), resumed.position.items);
    created_sink = std::move(resumed.shards[0].sink);
  } else {
    auto made = CreateSink(spec);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    created_sink = std::move(made).ValueOrDie();
  }
  // Resolved through the sink factory or restored from a checkpoint; the
  // batched driver owns parsing and ingestion for both kinds.
  WindowSampler* sampler = created_sink.sampler;
  WindowEstimator* estimator = created_sink.estimator;
  StreamSink* sink = created_sink.sink.get();

  std::optional<CheckpointWriter> writer;
  if (!checkpoint.dir.empty()) {
    CheckpointPolicy policy;
    policy.dir = checkpoint.dir;
    policy.every_items = checkpoint.every;
    // See RunSharded: resumed runs reuse the checkpoint's own envelope
    // configs and re-seed the every-N cadence from the resumed position.
    std::vector<SinkSerializer> serializers;
    if (checkpoint.resume) {
      serializers = SerializersFor(resumed);
    } else {
      auto made = MakeSinkSerializers(spec, 1);
      if (!made.ok()) {
        std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
        return 1;
      }
      serializers = std::move(made).ValueOrDie();
    }
    writer.emplace(policy, std::move(serializers), resumed.position.items);
    InstallKillHook(*writer, checkpoint.kill_after);
  }
  const CheckpointManifest* resume_pos =
      checkpoint.resume ? &resumed.position : nullptr;
  // Progress prints only the position and memory: drawing a sample or an
  // estimate may consume the sink's randomness and change the final
  // result.
  auto progress = [sink](uint64_t items) {
    std::fprintf(stderr, "events=%" PRIu64 " memory=%" PRIu64 " words\n",
                 items, sink->MemoryWords());
  };
  Result<DriveReport> result =
      driven_items != nullptr
          ? Result<DriveReport>(driver.Drive(*driven_items, *sink))
          : driver.DriveLines(input, source, timestamped, *sink,
                              writer ? &*writer : nullptr, resume_pos,
                              progress, report_every);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const DriveReport& r = result.value();
  // Stream totals include the prefix a resumed run skipped.
  const uint64_t total_events = r.items + resumed.position.items;
  std::fprintf(stderr,
               "sink=%s items=%" PRIu64 " batches=%" PRIu64
               " throughput=%.2fM items/s\n",
               sink->name(), total_events, r.batches, r.items_per_sec / 1e6);
  if (r.io_retries > 0 || r.io_giveups > 0) {
    std::fprintf(stderr, "checkpoint: io_retries=%" PRIu64
                 " io_giveups=%" PRIu64 "\n",
                 r.io_retries, r.io_giveups);
  }
  if (estimator != nullptr) {
    ReportEstimate(*estimator, total_events);
  } else {
    ReportSample(*sampler, total_events);
  }
  return 0;
}
