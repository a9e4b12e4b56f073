// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Batched ingestion engine: feeds in-memory or text streams through any
/// StreamSink — a sampler or an estimator built by CreateSink
/// — in batches, and reports throughput and live memory. This is the one
/// place single-threaded harness code pumps items from — benchmarks,
/// examples and the CLI share it.
///
/// Text input has exactly one grammar and one front end
/// (stream/text_frontend.h): files, pipes and stdin are read in
/// kTextBlockBytes blocks cut at newlines, parsed block by block and taken
/// back in stream order, by one read-ahead ring. StreamDriver parses the
/// blocks on up to three helper threads of its own (one fewer than the
/// CPUs the process may run on) and on the calling thread; the sharded
/// engine (stream/sharded_driver.h) parses them on its worker threads.
/// Every entry point accepts the same input with the same errors.
///
/// Ownership: a driver borrows the sink only for the duration of one
/// Drive* call and holds no state between calls.
///
/// Thread-safety: a StreamDriver is immutable after construction and may
/// be shared across threads, but each Drive* call pumps one sink from the
/// calling thread — drive a given sink from one thread at a time. Parse
/// helper threads only parse text; the sink, checkpoints and progress
/// calls stay on the calling thread.
///
/// Status conventions: malformed input returns InvalidArgument through
/// Result<DriveReport> with "source:line"-prefixed messages (e.g.
/// `events.txt:17: malformed event line (expected "<timestamp> <value>")`);
/// unopenable and unreadable inputs fail the drive with a message naming
/// the source; Drive cannot fail and returns a plain report.

#ifndef SWSAMPLE_STREAM_DRIVER_H_
#define SWSAMPLE_STREAM_DRIVER_H_

#include <cstddef>
#include <cstdio>
#include <functional>
#include <span>
#include <string>

#include "core/api.h"
#include "stream/checkpoint.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// What one Drive* call did, with wall-clock throughput.
struct DriveReport {
  uint64_t items = 0;            ///< arrivals delivered
  uint64_t batches = 0;          ///< ObserveBatch (or Observe-run) calls
  double seconds = 0.0;          ///< wall-clock ingestion time
  double items_per_sec = 0.0;    ///< items / seconds (0 when instant)
  uint64_t memory_words = 0;     ///< sink MemoryWords() after the run
  uint64_t peak_memory_words = 0;  ///< max MemoryWords() across probes
  /// Per-ObserveBatch wall-clock percentiles, only populated when
  /// Options::track_batch_latency is set (the bench reporter's tail
  /// statistic); 0 otherwise.
  double p50_batch_seconds = 0.0;
  double p99_batch_seconds = 0.0;
  /// Transient-I/O retries spent (and retry budgets exhausted) by the
  /// checkpoint writer during a checkpointed drive; 0 otherwise.
  uint64_t io_retries = 0;
  uint64_t io_giveups = 0;
};

/// Drives streams through a sampler or estimator in batches.
class StreamDriver {
 public:
  struct Options {
    /// Items per ObserveBatch call; 0 means per-item Observe (the slow
    /// path, kept selectable so benchmarks can compare the two).
    uint64_t batch_size = 1024;
    /// Probe MemoryWords() every this many batches for the peak statistic;
    /// 0 probes only once at the end (probing an O(n) oracle is not free).
    uint64_t memory_probe_every = 16;
    /// Record every batch's delivery latency and report p50/p99 in the
    /// DriveReport. Off by default: the timestamp pair per batch is cheap
    /// but not free, and only the bench reporter wants the tail.
    bool track_batch_latency = false;
  };

  StreamDriver() : StreamDriver(Options{}) {}
  explicit StreamDriver(const Options& options);

  /// Feeds a pre-materialized run of consecutive items. Synthetic streams
  /// are spans too: materialize them with WorkloadGenerator
  /// (stream/workload.h). The sink's clock ends at the last item's
  /// timestamp; a caller whose stream ends in quiet steps moves it on with
  /// sink.AdvanceTime afterwards.
  DriveReport Drive(std::span<const Item> items, StreamSink& sink) const;

  /// Progress callback for DriveLines: receives the stream position.
  using ProgressFn = std::function<void(uint64_t items)>;

  /// Feeds a text stream in the event-line grammar (stream/text_frontend.h),
  /// read block by block from `f` (borrowed; the caller closes it) and
  /// parsed on helper threads, started once a second block is read, and
  /// on the calling thread. The events go to the sink in stream order and
  /// batch_size runs, from the calling thread. Reads run up to the
  /// front end's ring of blocks ahead of delivery: after an error, `f` may
  /// be past the failing block, and from a live pipe, delivery lags the
  /// input by up to the ring (two blocks per parsing thread, at most
  /// 128 KiB).
  ///
  /// Crash recovery: `writer` (nullable = disabled) writes periodic
  /// checkpoints; a non-null `resume` skips the events a restored sink
  /// (see LoadCheckpoint) already ingested and continues from there.
  /// Checkpoints and `progress` calls happen only at batch boundaries —
  /// progress at the first boundary at or after each multiple of
  /// `progress_every` — so neither shifts the batch segmentation: a
  /// resumed or progress-reporting run's final state is bit-identical to
  /// a plain uninterrupted run's. The report counts only items delivered
  /// by THIS call (resumed runs add resume->items for stream totals).
  Result<DriveReport> DriveLines(std::FILE* f, const std::string& source_name,
                                 bool timestamped, StreamSink& sink,
                                 CheckpointWriter* writer = nullptr,
                                 const CheckpointManifest* resume = nullptr,
                                 const ProgressFn& progress = nullptr,
                                 uint64_t progress_every = 0) const;

  /// DriveLines over a file path.
  Result<DriveReport> DriveFile(const std::string& path, bool timestamped,
                                StreamSink& sink) const;

  /// Checkpointed DriveLines over a file path.
  Result<DriveReport> DriveFileCheckpointed(
      const std::string& path, bool timestamped, StreamSink& sink,
      CheckpointWriter* writer, const CheckpointManifest* resume) const;

  const Options& options() const { return options_; }

 private:
  /// Shared pump: delivers buffered items, tracks batches + peak memory.
  class Pump;

  Options options_;
};

/// Bytes per block of text input, a carried partial line included: both
/// drivers read this many, cut the block after its last newline and carry
/// the rest into the next block. Small enough that the sharded driver's
/// parse jobs in flight stay cache-sized, large enough that one hand-off
/// per job is noise next to its parse.
inline constexpr size_t kTextBlockBytes = 16 * 1024;

/// Longest accepted event line, not counting its terminator.
inline constexpr size_t kMaxEventLineChars = 254;

/// Allocation-free core of the event-line grammar: how one line failed to
/// parse, if it did. Error strings are built only for the failing line,
/// so successfully parsed lines allocate nothing.
enum class LineParse {
  kOk,           ///< *value (and *ts when timestamped) are set
  kBlank,        ///< whitespace-only line; skip it
  kMalformed,    ///< not "<value>" / "<timestamp> <value>"
  kNonMonotone,  ///< timestamp decreased
  kTooLong,      ///< longer than kMaxEventLineChars
};

/// Parses the event on [begin, end) (one line, no terminator) with a
/// tight digit loop over the raw bytes — no sscanf, no locale, no copies.
/// Grammar matches the historical sscanf forms: optional whitespace,
/// optional sign, digits; trailing bytes after the last field ignored.
LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_DRIVER_H_
