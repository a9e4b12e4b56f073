// Copyright (c) swsample authors. Licensed under the MIT license.
//
// stream_sampler_cli: pump a stream — stdin, a file, a synthesized
// workload or a recorded trace — through any registered sink: a sampler,
// or an estimator over a compatible sampling substrate (Theorem 5.1 at
// the command line). A run is single-threaded, sharded across worker
// threads, or keyed (one independent window per key through the
// multi-tenant engine).
//
//   build/examples/stream_sampler_cli [flags] [<window> <k>]
//
// Any unknown flag prints the flag table with its help text.
//
// Design:
//  * One flag table (kFlags). A row names a flag, how its value parses,
//    the field it sets, the mode it requires (keyed, checkpoint or a
//    synthesized input), the flags it excludes and its help. One loop
//    parses argv, one pass checks the rules, and Usage() prints the table.
//  * One sink spec. --algo, --estimator and --substrate spell the same
//    ParseSinkSpec text as --sink; --seed, --moment, --vertices and --q
//    are spliced in after the name, so keys the --sink text sets itself
//    win. The positionals, when given, override the window and k/r.
//  * One run body: build the sink set (CreateSink, CreateShardedSinks,
//    the keyed engine, or a checkpoint through one resume check), one
//    CheckpointWriter, one drive call (StreamDriver for one sink,
//    ShardedStreamDriver for several), one report.
//  * A single run queries its sink with Sample()/Estimate(); a sharded
//    run merges (MergedSnapshot seeded from --seed, MergedEstimate). A
//    single keyed run uses KeyedWindowEngine::Create, because
//    CreateKeyedEngines forks seeds per shard.
//  * Sharded sequence windows routed in chunks: chunk_items is the
//    largest divisor of n/shards that is at most --batch (1024 when
//    --batch=0). Routing has period chunk_items * shards, so every n-long
//    suffix of the stream holds exactly n/shards items of each shard, and
//    the shard windows union to the global last-n window.
//  * stdout carries only the final result line(s); progress, throughput
//    and per-shard lines go to stderr. Progress never draws from a sink,
//    so --report cannot change the result.
//  * Keyed mode prints engine stats only (per-key queries are a library
//    surface: KeyedWindowEngine::SampleKey/EstimateKey) and does not
//    checkpoint: the engine's spill directory is its persistence story.
//  * Exit codes: 2 when the flags cannot describe a run (bad flags or
//    specs, a non-mergeable sink sharded, a checkpoint of another sink);
//    1 when the run fails (a sink configuration CreateSink rejects, I/O,
//    malformed input, an unhealthy keyed run); 0 otherwise.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
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

/// Every flag's value; the defaults are the CLI's.
struct Flags {
  std::string sink, algo, estimator, substrate;
  bool list_sinks = false;
  uint64_t key_shift = 0, key_budget = 0, key_ttl = 0, key_io_retries = 0;
  std::string spill_dir, key_degrade = "block";
  bool key_strict_budget = false, key_sync_restore = false;
  std::string failpoints, file, workload, record_trace, replay_trace;
  uint64_t items = 1000000, batch = 1024, seed = 0x5eed;
  uint64_t threads = 1, shards = 0;
  std::string partition, checkpoint_dir;
  uint64_t checkpoint_every = 1000000, kill_after = 0;
  bool resume = false;
  uint64_t moment = 2, vertices = 0, report = 10000;
  double q = 0.5;
  uint64_t seen = 0;  // bit i: kFlags[i] was given

  bool Seen(std::string_view name) const;
};

enum class Parse { kSwitch, kU64, kBytes, kDouble, kString, kEnum };

/// Modes a flag can need.
constexpr unsigned kKeyed = 1;        // --keys
constexpr unsigned kCheckpoint = 2;   // --checkpoint-dir
constexpr unsigned kSynthesized = 4;  // --workload

using Field = std::variant<bool Flags::*, uint64_t Flags::*, double Flags::*,
                           std::string Flags::*>;

/// One flag. `value` is the help placeholder; in brackets the value is
/// optional, and for kEnum it lists the choices ("a|b").
struct FlagRow {
  const char* name;  // without the leading "--"
  Parse parse;
  Field field;
  unsigned needs;        // mode bits
  const char* excludes;  // space-separated flag names
  const char* value;
  const char* help;
};

const FlagRow kFlags[] = {
    {"sink", Parse::kString, &Flags::sink, 0, "algo estimator substrate",
     "<spec>", "the sink, in the grammar name[@substrate][,key=value]... of "
     "apps/sink_spec.h; the positionals, if given, override window and k/r"},
    {"algo", Parse::kString, &Flags::algo, 0, "estimator", "<name>",
     "sampler to run (default bop-seq-swor)"},
    {"estimator", Parse::kString, &Flags::estimator, 0, "", "<name>",
     "estimator to run"},
    {"substrate", Parse::kString, &Flags::substrate, 0, "", "<name>",
     "sampling substrate of --estimator (default: the estimator's own)"},
    {"list-sinks", Parse::kSwitch, &Flags::list_sinks, 0, "", "",
     "list every sampler and estimator, with substrates, and exit"},
    {"keys", Parse::kU64, &Flags::key_shift, 0, "checkpoint-dir",
     "[=<shift>]", "keyed mode: a window per key, key = value >> shift"},
    {"key-budget", Parse::kBytes, &Flags::key_budget, kKeyed, "", "<bytes>",
     "keyed memory budget, K/M/G suffixes; cold keys spill to --spill-dir"},
    {"key-ttl", Parse::kU64, &Flags::key_ttl, kKeyed, "", "<t>",
     "drop keys idle longer than t timestamp units"},
    {"spill-dir", Parse::kString, &Flags::spill_dir, kKeyed, "", "<dir>",
     "directory for keyed-mode spill files"},
    {"key-strict-budget", Parse::kSwitch, &Flags::key_strict_budget, kKeyed,
     "", "", "enforce the budget per item, not per per-key micro-batch"},
    {"key-sync-restore", Parse::kSwitch, &Flags::key_sync_restore, kKeyed, "",
     "", "restore spilled keys without the prefetch thread (same results)"},
    {"key-degrade", Parse::kEnum, &Flags::key_degrade, kKeyed, "",
     "block|shed", "on a spill outage, latch an error or shed cold keys"},
    {"key-io-retries", Parse::kU64, &Flags::key_io_retries, kKeyed, "", "<n>",
     "attempts per spill/restore I/O (default: the retry policy's)"},
    {"failpoints", Parse::kString, &Flags::failpoints, 0, "", "<spec>",
     "arm fault injection, <site>=<class>[,k=v]...[;...], seeded by --seed"},
    {"file", Parse::kString, &Flags::file, 0, "workload replay-trace",
     "<path>", "read events from a file instead of stdin"},
    {"workload", Parse::kString, &Flags::workload, 0,
     "replay-trace checkpoint-dir", "<spec>",
     "synthesize the stream (grammar in stream/workload.h), e.g. poisson"},
    {"items", Parse::kU64, &Flags::items, 0, "", "<n>",
     "events to synthesize for --workload (default 1000000)"},
    {"record-trace", Parse::kString, &Flags::record_trace, kSynthesized, "",
     "<path>", "write the synthesized stream to a trace"},
    {"replay-trace", Parse::kString, &Flags::replay_trace, 0,
     "checkpoint-dir", "<path>", "read the stream from a recorded trace"},
    {"batch", Parse::kU64, &Flags::batch, 0, "", "<n>",
     "ingestion batch size (default 1024; 0 = per item)"},
    {"seed", Parse::kU64, &Flags::seed, 0, "", "<n>",
     "RNG seed (default 0x5eed), unless the --sink text sets seed="},
    {"threads", Parse::kU64, &Flags::threads, 0, "", "<n>",
     "worker threads; above 1 drives shards in parallel (default 1)"},
    {"shards", Parse::kU64, &Flags::shards, 0, "", "<n>",
     "sink replicas (default: one per thread); must divide sequence windows"},
    {"partition", Parse::kEnum, &Flags::partition, 0, "", "chunks|keyhash",
     "shard routing (default: keyhash for timestamp sinks and key-disjoint "
     "merges, chunks otherwise)"},
    {"checkpoint-dir", Parse::kString, &Flags::checkpoint_dir, 0, "", "<dir>",
     "write periodic checkpoints (sink state + manifest) into dir"},
    {"checkpoint-every", Parse::kU64, &Flags::checkpoint_every, kCheckpoint,
     "", "<n>", "events between checkpoints (default 1000000)"},
    {"resume", Parse::kSwitch, &Flags::resume, kCheckpoint, "", "",
     "restore the checkpoint and skip the replayed input's prefix"},
    {"kill-after", Parse::kU64, &Flags::kill_after, kCheckpoint, "", "<n>",
     "testing hook: SIGKILL after the first checkpoint at >= n events"},
    {"moment", Parse::kU64, &Flags::moment, 0, "", "<k>",
     "frequency moment for ams-fk (default 2)"},
    {"vertices", Parse::kU64, &Flags::vertices, 0, "", "<v>",
     "vertex universe for buriol-triangles"},
    {"q", Parse::kDouble, &Flags::q, 0, "", "<q>",
     "quantile for dkw-quantile (default 0.5)"},
    {"report", Parse::kU64, &Flags::report, 0, "", "<n>",
     "progress line every n events, unsharded (default 10000; 0 = none)"},
};

const FlagRow* FindFlag(std::string_view name) {
  for (const FlagRow& row : kFlags) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

static_assert(std::size(kFlags) <= 64, "Flags::seen holds one bit per row");

bool Flags::Seen(std::string_view name) const {
  const FlagRow* row = FindFlag(name);
  return row != nullptr && (seen >> (row - kFlags) & 1) != 0;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [flags] [<window> <k>]\n"
               "  <window>  n (items) for sequence sinks, t0 (time units) "
               "for timestamp ones\n"
               "  <k>       samples to keep, or estimator units r\n"
               "  input lines: \"<value>\" (sequence) or \"<timestamp> "
               "<value>\" (timestamp)\n",
               argv0);
  for (const FlagRow& row : kFlags) {
    std::string flag = std::string("--") + row.name;
    if (row.parse != Parse::kSwitch) {
      flag += row.value[0] == '[' ? row.value : std::string("=") + row.value;
    }
    std::fprintf(stderr, "  %s\n      %s\n", flag.c_str(), row.help);
  }
  std::fprintf(stderr, "  sinks: %s\n", RegisteredSinkNames().c_str());
}

// Parses a non-negative integer, with a K/M/G (binary) suffix when
// `bytes` ("64M"); false on garbage, sign, overflow or trailing bytes.
bool ParseU64(const char* s, uint64_t* out, bool bytes = false) {
  if (*s == '\0' || *s == '-' || *s == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s) return false;
  int shift = 0;
  if (bytes && (*end == 'K' || *end == 'k')) shift = 10;
  if (bytes && (*end == 'M' || *end == 'm')) shift = 20;
  if (bytes && (*end == 'G' || *end == 'g')) shift = 30;
  if (shift > 0) ++end;
  if (*end != '\0' || v > (UINT64_MAX >> shift)) return false;
  *out = static_cast<uint64_t>(v) << shift;
  return true;
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool IsChoice(std::string_view choices, std::string_view value) {
  for (size_t at = 0; at <= choices.size();) {
    const size_t bar = std::min(choices.find('|', at), choices.size());
    if (choices.substr(at, bar - at) == value) return true;
    at = bar + 1;
  }
  return false;
}

/// Stores `value` (nullptr for a bare "--name") into the row's field.
bool SetFlag(const FlagRow& row, const char* value, Flags* f) {
  if (value == nullptr) {
    if (row.parse != Parse::kSwitch) return row.value[0] == '[';
    f->*std::get<bool Flags::*>(row.field) = true;
    return true;
  }
  switch (row.parse) {
    case Parse::kSwitch:
      return false;
    case Parse::kU64:
    case Parse::kBytes:
      return ParseU64(value, &(f->*std::get<uint64_t Flags::*>(row.field)),
                      row.parse == Parse::kBytes);
    case Parse::kDouble:
      return ParseDouble(value, &(f->*std::get<double Flags::*>(row.field)));
    case Parse::kEnum:
      if (!IsChoice(row.value, value)) return false;
      [[fallthrough]];
    case Parse::kString:
      f->*std::get<std::string Flags::*>(row.field) = value;
      return true;
  }
  return false;
}

/// Parses argv into `f` and `positional`, then checks every row's
/// requires and excludes rules. Prints the error and returns false on a
/// usage error.
bool ParseFlags(int argc, char** argv, Flags* f,
                std::vector<const char*>* positional) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional->push_back(argv[i]);
      continue;
    }
    const size_t eq = arg.find('=');
    const FlagRow* row = FindFlag(arg.substr(2, eq - 2));
    if (row == nullptr) {
      Usage(argv[0]);
      return false;
    }
    const char* value =
        eq == std::string_view::npos ? nullptr : argv[i] + eq + 1;
    if (!SetFlag(*row, value, f)) {
      std::fprintf(stderr, "error: --%s expects %s, got \"%s\"\n", row->name,
                   row->parse == Parse::kSwitch ? "no value" : row->value,
                   value == nullptr ? "" : value);
      return false;
    }
    f->seen |= uint64_t{1} << (row - kFlags);
  }
  const unsigned modes = (f->Seen("keys") ? kKeyed : 0u) |
                         (f->Seen("checkpoint-dir") ? kCheckpoint : 0u) |
                         (f->Seen("workload") ? kSynthesized : 0u);
  for (const FlagRow& row : kFlags) {
    if (!f->Seen(row.name)) continue;
    if (const unsigned missing = row.needs & ~modes; missing != 0) {
      std::fprintf(stderr, "error: --%s requires %s\n", row.name,
                   missing == kKeyed        ? "--keys"
                   : missing == kCheckpoint ? "--checkpoint-dir"
                                            : "--workload");
      return false;
    }
    for (std::string_view rest = row.excludes; !rest.empty();) {
      const size_t space = std::min(rest.find(' '), rest.size());
      const std::string other(rest.substr(0, space));
      rest.remove_prefix(std::min(space + 1, rest.size()));
      if (f->Seen(other)) {
        std::fprintf(stderr, "error: --%s and --%s are exclusive\n", row.name,
                     other.c_str());
        return false;
      }
    }
  }
  if (f->Seen("checkpoint-dir") && f->checkpoint_every == 0) {
    std::fprintf(stderr, "error: --checkpoint-every must be at least 1\n");
    return false;
  }
  if (f->Seen("keys") && f->partition == "chunks") {
    std::fprintf(stderr,
                 "error: keyed sharding must keep each key on one engine; "
                 "--partition=chunks is incompatible with --keys\n");
    return false;
  }
  return true;
}

/// Resolves the sink flags and positionals into one SinkSpec. Prints the
/// error and returns nullopt on a usage error.
std::optional<SinkSpec> ResolveSpec(
    const Flags& f, const std::vector<const char*>& positional) {
  // --sink carries its own window and k, so the positionals are optional
  // there; every alias needs them.
  uint64_t window = 0;
  uint64_t k = 0;
  const bool have_positionals = positional.size() == 2;
  if (have_positionals
          ? !ParseU64(positional[0], &window) || !ParseU64(positional[1], &k) ||
                window == 0 || k == 0 ||
                window > static_cast<uint64_t>(INT64_MAX)
          : f.sink.empty() || !positional.empty()) {
    std::fprintf(stderr,
                 "error: expected <window> <k>, two positive integers%s\n",
                 f.sink.empty() ? "" : " (optional with --sink)");
    return std::nullopt;
  }
  std::string text = f.sink;
  if (text.empty()) {
    text = !f.estimator.empty() ? f.estimator
           : !f.algo.empty()    ? f.algo
                                : "bop-seq-swor";
    if (!f.substrate.empty()) text += "@" + f.substrate;
  }
  // ParseSinkSpec keeps the last value of a repeated key, so these go
  // right after the name, before any key the --sink text sets.
  char keys[160];
  std::snprintf(keys, sizeof keys,
                ",seed=%" PRIu64 ",moment=%" PRIu64 ",vertices=%" PRIu64
                ",q=%.17g",
                f.seed, f.moment, f.vertices, f.q);
  text.insert(std::min(text.find(','), text.size()), keys);
  auto parsed = ParseSinkSpec(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return std::nullopt;
  }
  SinkSpec spec = std::move(parsed).ValueOrDie();
  if (have_positionals) {
    spec.window_n = window;
    spec.window_t = static_cast<Timestamp>(window);
    spec.k = k;
    spec.r = k;
  }
  return spec;
}

/// Prints a failed status to stderr and returns `code`.
int Fail(const Status& status, int code = 1) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return code;
}

/// A single construction as a one-element set, so single and sharded
/// runs hold their sinks alike.
template <typename T>
Result<std::vector<T>> One(Result<T> made) {
  if (!made.ok()) return made.status();
  std::vector<T> one;
  one.push_back(std::move(made).ValueOrDie());
  return one;
}

/// The largest divisor of `n` that is at most `cap` (n, cap >= 1).
uint64_t LargestDivisorAtMost(uint64_t n, uint64_t cap) {
  uint64_t best = 1;
  for (uint64_t d = 1; d <= n / d; ++d) {
    if (n % d != 0) continue;
    if (d <= cap) best = std::max(best, d);
    if (n / d <= cap) best = std::max(best, n / d);
  }
  return best;
}

/// Prints the keyed engines' summed stats; returns 1 unless the run was
/// clean (a latched error, a degraded or recovering engine, give-ups,
/// drops or restore misses all make the printed results lossy).
int ReportKeyed(const std::vector<std::unique_ptr<KeyedWindowEngine>>& engines,
                uint64_t events) {
  KeyedEngineStats total;
  bool latched = false;
  for (const auto& engine : engines) {
    if (!engine->status().ok()) {
      Fail(engine->status());
      latched = true;
    }
    const KeyedEngineStats& stats = engine->stats();
    total.live_keys += stats.live_keys;
    total.spilled_keys += stats.spilled_keys;
    total.evictions += stats.evictions;
    total.restores += stats.restores;
    total.expirations += stats.expirations;
    total.charged_bytes += stats.charged_bytes;
    total.retained_bytes += stats.retained_bytes;
    total.io_retries += stats.io_retries;
    total.io_giveups += stats.io_giveups;
    total.degraded_drops += stats.degraded_drops;
    total.shed_bytes += stats.shed_bytes;
    total.quarantined_files += stats.quarantined_files;
    total.restore_misses += stats.restore_misses;
    // Degraded dominates recovering dominates healthy.
    if (stats.health == KeyedEngineHealth::kDegraded ||
        (stats.health == KeyedEngineHealth::kRecovering &&
         total.health == KeyedEngineHealth::kHealthy)) {
      total.health = stats.health;
    }
  }
  std::printf("events=%" PRIu64 " live_keys=%" PRIu64 " spilled_keys=%" PRIu64
              " evictions=%" PRIu64 " restores=%" PRIu64
              " expirations=%" PRIu64 " charged=%" PRIu64
              " bytes retained=%" PRIu64 " bytes\n",
              events, total.live_keys, total.spilled_keys, total.evictions,
              total.restores, total.expirations, total.charged_bytes,
              total.retained_bytes);
  std::printf("io_retries=%" PRIu64 " io_giveups=%" PRIu64
              " degraded_drops=%" PRIu64 " shed_bytes=%" PRIu64
              " quarantined_files=%" PRIu64 " restore_misses=%" PRIu64
              " health=%s\n",
              total.io_retries, total.io_giveups, total.degraded_drops,
              total.shed_bytes, total.quarantined_files, total.restore_misses,
              KeyedHealthName(total.health));
  if (latched || total.health != KeyedEngineHealth::kHealthy ||
      total.io_giveups > 0 || total.degraded_drops > 0 ||
      total.restore_misses > 0) {
    std::fprintf(stderr,
                 "keyed: unhealthy run: health=%s io_giveups=%" PRIu64
                 " degraded_drops=%" PRIu64 " quarantined_files=%" PRIu64
                 " restore_misses=%" PRIu64 "\n",
                 KeyedHealthName(total.health), total.io_giveups,
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

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  std::vector<const char*> positional;
  if (!ParseFlags(argc, argv, &f, &positional)) return 2;
  if (f.list_sinks) {
    std::printf("%s", FormatSinkList().c_str());
    return 0;
  }
  // Arm fault injection before any sink or driver touches a file. The
  // failpoint seed forks off --seed so drills are reproducible; the env
  // var reaches runs the harness cannot pass flags to.
  const Status armed = f.Seen("failpoints")
                           ? ArmFailpoints(f.failpoints, f.seed)
                           : ArmFailpointsFromEnv(f.seed);
  if (!armed.ok()) return Fail(armed, 2);
  if (AnyFailpointArmed()) std::atexit(PrintFailpointReport);

  std::optional<SinkSpec> resolved = ResolveSpec(f, positional);
  if (!resolved) return 2;
  const SinkSpec& spec = *resolved;
  auto model = SinkWindowModel(spec);
  if (!model.ok()) return Fail(model.status(), 2);
  const bool timestamped = model.value() == WindowModel::kTimestamp;
  const bool estimators = FindSink(spec.name)->kind == SinkKind::kEstimator;

  // The stream: synthesized up front, or read from stdin or --file.
  std::vector<Item> items;
  if (!f.replay_trace.empty()) {
    auto read = ReadTrace(f.replay_trace);
    if (!read.ok()) return Fail(read.status());
    items = std::move(read).ValueOrDie();
    std::fprintf(stderr, "replay: %zu events from %s\n", items.size(),
                 f.replay_trace.c_str());
  } else if (!f.workload.empty()) {
    auto gen = WorkloadGenerator::Create(f.workload, f.seed);
    if (!gen.ok()) return Fail(gen.status(), 2);
    items = std::move(gen).ValueOrDie()->Take(f.items);
    if (!f.record_trace.empty()) {
      if (Status status = WriteTrace(f.record_trace, items); !status.ok()) {
        return Fail(status);
      }
      std::fprintf(stderr, "trace: %zu events recorded to %s\n", items.size(),
                   f.record_trace.c_str());
    }
  }
  const bool synthesized = !f.replay_trace.empty() || !f.workload.empty();

  std::unique_ptr<std::FILE, FileCloser> opened;
  std::FILE* input = stdin;
  const std::string source = f.file.empty() ? "stdin" : f.file;
  if (!f.file.empty()) {
    auto file = OpenStdioFile("ingest.open", f.file);
    if (!file.ok()) return Fail(file.status());
    opened.reset(file.value());
    input = opened.get();
  }

  // Build the sink set: keyed engines, a resumed checkpoint, or fresh
  // sinks; one of each per shard.
  const bool keyed = f.Seen("keys");
  const bool sharded = f.threads > 1 || f.shards > 1;
  const uint64_t shards = !sharded ? 1 : f.shards == 0 ? f.threads : f.shards;
  std::vector<std::unique_ptr<KeyedWindowEngine>> engines;
  std::vector<Sink> owned;
  ResumedCheckpoint resumed;  // --resume: restored state + skip position
  if (keyed) {
    KeyedEngineOptions options;
    options.spec = spec;
    options.key_shift = f.key_shift;
    options.memory_budget_bytes = f.key_budget;
    options.idle_ttl = static_cast<Timestamp>(f.key_ttl);
    options.spill_dir = f.spill_dir;
    options.strict_budget = f.key_strict_budget;
    options.async_restore = !f.key_sync_restore;
    options.degrade = f.key_degrade == "shed" ? KeyedDegradeMode::kShed
                                              : KeyedDegradeMode::kBlock;
    if (f.key_io_retries > 0) {
      options.io_retry.max_attempts = static_cast<uint32_t>(f.key_io_retries);
    }
    auto made = sharded ? CreateKeyedEngines(options, shards)
                        : One(KeyedWindowEngine::Create(options));
    if (!made.ok()) return Fail(made.status());
    engines = std::move(made).ValueOrDie();
  } else if (f.resume) {
    auto loaded = LoadCheckpoint(f.checkpoint_dir);
    if (!loaded.ok()) return Fail(loaded.status());
    resumed = std::move(loaded).ValueOrDie();
    const SinkSpec& held = resumed.shards[0].spec;
    if (held.name != spec.name || resumed.shards.size() != shards) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds %zu shard(s) of \"%s\", "
                   "but the flags request %" PRIu64 " of \"%s\"\n",
                   f.checkpoint_dir.c_str(), resumed.shards.size(),
                   held.name.c_str(), shards, spec.name.c_str());
      return 2;
    }
    std::fprintf(stderr,
                 "resume: restored %s (%" PRIu64 " shard(s)) at %" PRIu64
                 " events; the checkpoint's configuration is authoritative\n",
                 held.name.c_str(), shards, resumed.position.items);
    for (RestoredSink& shard : resumed.shards) {
      owned.push_back(std::move(shard.sink));
    }
  } else {
    auto made =
        sharded ? CreateShardedSinks(spec, shards) : One(CreateSink(spec));
    if (!made.ok()) return Fail(made.status());
    owned = std::move(made).ValueOrDie();
  }
  const std::vector<StreamSink*> sinks =
      keyed ? SinkPointers(engines) : SinkPointers(owned);

  // Sharded output only exists through the merge surface, so refuse
  // non-mergeable sinks before ingesting the stream.
  bool key_disjoint = false;
  if (sharded && !keyed) {
    const bool mergeable =
        estimators
            ? owned[0].estimator->merge_kind() != EstimateMergeKind::kNone
            : owned[0].sampler->mergeable();
    if (!mergeable) {
      std::fprintf(stderr,
                   "%s is not merge-capable; run it single-threaded "
                   "(--threads=1)\n",
                   spec.name.c_str());
      return 2;
    }
    key_disjoint = estimators && MergeNeedsKeyDisjointShards(
                                     owned[0].estimator->merge_kind());
  }
  ShardedStreamDriver::Options options;
  options.threads = f.threads;
  // Keys must stay whole, so keyed runs always route by the hash of the
  // shifted key; otherwise key-hash whenever the merge needs key-disjoint
  // shards or the window is timestamp-based, unless --partition says.
  options.partition =
      keyed || (f.partition.empty() ? timestamped || key_disjoint
                                    : f.partition == "keyhash")
          ? ShardPartition::kKeyHash
          : ShardPartition::kChunks;
  options.key_shift = keyed ? f.key_shift : 0;
  // --batch=0 is the single driver's per-item path; chunks stay batched.
  options.chunk_items = f.batch == 0 ? 1024 : f.batch;
  if (options.partition == ShardPartition::kChunks && !timestamped &&
      spec.window_n >= shards) {
    options.chunk_items =
        LargestDivisorAtMost(spec.window_n / shards, options.chunk_items);
  }
  if (sharded && !keyed && options.partition == ShardPartition::kKeyHash &&
      !timestamped) {
    std::fprintf(stderr,
                 "note: key-hash sharding of a sequence window assumes "
                 "near-uniform key load; for skewed keys prefer a "
                 "timestamp substrate (e.g. --substrate=bop-ts-single)\n");
  }

  std::optional<CheckpointWriter> writer;
  if (!f.checkpoint_dir.empty()) {
    // A resumed run keeps stamping envelopes with the checkpoint's own
    // specs, so flag drift cannot corrupt later checkpoints, and its
    // position re-seeds the every-n cadence.
    auto serializers = f.resume ? Result<std::vector<SinkSerializer>>(
                                      SerializersFor(resumed))
                                : MakeSinkSerializers(spec, shards);
    if (!serializers.ok()) return Fail(serializers.status());
    CheckpointPolicy policy;
    policy.dir = f.checkpoint_dir;
    policy.every_items = f.checkpoint_every;
    writer.emplace(policy, std::move(serializers).ValueOrDie(),
                   resumed.position.items);
    if (f.kill_after > 0) {
      writer->set_after_write([kill_after = f.kill_after](uint64_t events) {
        if (events < kill_after) return;
        std::fprintf(stderr,
                     "--kill-after: SIGKILL after checkpoint at %" PRIu64
                     " events\n",
                     events);
        std::raise(SIGKILL);
      });
    }
  }

  // Progress reports position and memory only: drawing a sample or an
  // estimate may consume the sink's randomness and change the result.
  auto progress = [&](uint64_t events) {
    if (!keyed) {
      std::fprintf(stderr, "events=%" PRIu64 " memory=%" PRIu64 " words\n",
                   events, sinks[0]->MemoryWords());
      return;
    }
    const KeyedEngineStats& stats = engines[0]->stats();
    std::fprintf(stderr,
                 "events=%" PRIu64 " live_keys=%" PRIu64 " spilled=%" PRIu64
                 " charged=%" PRIu64 " bytes\n",
                 events, stats.live_keys, stats.spilled_keys,
                 stats.charged_bytes);
  };
  const CheckpointManifest* resume_at = f.resume ? &resumed.position : nullptr;
  auto drive = [&]() -> Result<ShardedDriveReport> {
    if (sharded) {
      const ShardedStreamDriver driver(options);
      return synthesized ? driver.Drive(items, sinks)
                         : driver.DriveLines(input, source, timestamped, sinks,
                                             writer ? &*writer : nullptr,
                                             resume_at);
    }
    StreamDriver::Options single;
    single.batch_size = f.batch;
    const StreamDriver driver(single);
    auto drove = synthesized
                     ? Result<DriveReport>(driver.Drive(items, *sinks[0]))
                     : driver.DriveLines(input, source, timestamped, *sinks[0],
                                         writer ? &*writer : nullptr,
                                         resume_at, progress, f.report);
    if (!drove.ok()) return drove.status();
    return ShardedDriveReport{drove.value(), {}};
  };
  const Result<ShardedDriveReport> drove = drive();
  if (!drove.ok()) return Fail(drove.status());

  // Report. Stream totals include the prefix a resumed run skipped, minus
  // the checkpoint's pending router items, which that prefix counts but
  // this run delivers.
  const DriveReport& total = drove.value().total;
  uint64_t events = total.items + resumed.position.items;
  for (const auto& buffer : resumed.position.pending) events -= buffer.size();
  const std::string name = keyed ? "keyed-engine(" + FormatSinkSpec(spec) + ")"
                                 : sinks[0]->name();
  if (sharded) {
    std::fprintf(stderr,
                 "sink=%s shards=%" PRIu64 " threads=%" PRIu64
                 " partition=%s items=%" PRIu64 " aggregate=%.2fM items/s\n",
                 name.c_str(), shards, f.threads,
                 options.partition == ShardPartition::kKeyHash ? "keyhash"
                                                               : "chunks",
                 events, total.items_per_sec / 1e6);
  } else {
    std::fprintf(stderr,
                 "sink=%s items=%" PRIu64 " batches=%" PRIu64
                 " throughput=%.2fM items/s\n",
                 name.c_str(), events, total.batches,
                 total.items_per_sec / 1e6);
  }
  if (total.io_retries > 0 || total.io_giveups > 0) {
    std::fprintf(stderr,
                 "checkpoint: io_retries=%" PRIu64 " io_giveups=%" PRIu64 "\n",
                 total.io_retries, total.io_giveups);
  }
  for (size_t s = 0; s < drove.value().shards.size(); ++s) {
    const ShardReport& shard = drove.value().shards[s];
    std::fprintf(stderr,
                 "  shard %zu: items=%" PRIu64 " memory=%" PRIu64
                 " words busy=%.2fM items/s\n",
                 s, shard.items, shard.memory_words, shard.items_per_sec / 1e6);
  }
  if (keyed) return ReportKeyed(engines, events);

  // One sink is queried directly; shards are merged.
  uint64_t memory = total.memory_words;
  std::string result;
  char buf[256];
  if (estimators) {
    EstimateReport estimate;
    if (sharded) {
      auto merged = MergedEstimate(EstimatorPointers(owned).value());
      if (!merged.ok()) return Fail(merged.status());
      estimate = std::move(merged).ValueOrDie();
    } else {
      estimate = owned[0].estimator->Estimate();
      memory = owned[0].estimator->MemoryWords();
    }
    std::snprintf(buf, sizeof buf, "%s=%.6g window=%.6g support=%" PRIu64,
                  estimate.metric.c_str(), estimate.value,
                  estimate.window_size, estimate.support);
    result = buf;
  } else {
    std::vector<Item> sample;
    if (sharded) {
      auto merged =
          MergedSnapshot(SamplerPointers(owned).value(), f.seed ^ 0x5eedful);
      if (!merged.ok()) return Fail(merged.status());
      sample = std::move(merged).ValueOrDie().sample;
    } else {
      sample = owned[0].sampler->Sample();
      memory = owned[0].sampler->MemoryWords();
    }
    result = "sample=[";
    for (size_t i = 0; i < sample.size(); ++i) {
      result += (i ? " " : "") + std::to_string(sample[i].value);
    }
    result += "]";
  }
  std::printf("events=%" PRIu64 " memory=%" PRIu64 " words %s\n", events,
              memory, result.c_str());
  return 0;
}
