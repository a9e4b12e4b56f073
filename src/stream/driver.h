// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Batched ingestion engine: feeds generated or file-backed streams through
/// any StreamSink — a sampler or an estimator built by CreateSink — in
/// batches, and reports throughput and live memory. This is the one place
/// single-threaded harness code pumps items from — benchmarks, examples
/// and the CLI share it — and the
/// sharded engine (stream/sharded_driver.h) reuses its line grammar, so
/// the two backends stay drop-in interchangeable at call sites.
///
/// Ownership: a driver borrows the sink only for the duration of one
/// Drive* call and holds no state between calls.
///
/// Thread-safety: a StreamDriver is immutable after construction and may
/// be shared across threads, but each Drive* call pumps one sink from the
/// calling thread — drive a given sink from one thread at a time.
///
/// Status conventions: unreadable files and malformed input return
/// InvalidArgument through Result<DriveReport> with "source:line"-prefixed
/// messages (e.g. `events.txt:17: malformed event line (expected
/// "<timestamp> <value>")`); Drive/DriveSynthetic cannot fail and return
/// plain reports.

#ifndef SWSAMPLE_STREAM_DRIVER_H_
#define SWSAMPLE_STREAM_DRIVER_H_

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "stream/checkpoint.h"
#include "stream/item.h"
#include "stream/stream_gen.h"
#include "util/status.h"

namespace swsample {

/// What one Drive* call did, with wall-clock throughput.
struct DriveReport {
  uint64_t items = 0;            ///< arrivals delivered
  uint64_t batches = 0;          ///< ObserveBatch (or Observe-run) calls
  uint64_t empty_steps = 0;      ///< AdvanceTime-only steps (synthetic)
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

  /// Feeds a pre-materialized run of consecutive items.
  DriveReport Drive(std::span<const Item> items, StreamSink& sink) const;

  /// Steps `steps` bursts out of a synthetic stream. Empty bursts become
  /// AdvanceTime calls (flushing any pending batch first, so the sink
  /// observes the same arrival/clock order as unbatched feeding).
  DriveReport DriveSynthetic(SyntheticStream& stream, uint64_t steps,
                             StreamSink& sink) const;

  /// Called every `progress_every` items (pending batches are flushed
  /// first, so the sink state reflects everything delivered so far).
  using ProgressFn = std::function<void(uint64_t items)>;

  /// Feeds a text stream, one event per line: "<value>" when
  /// `timestamped` is false (timestamp := arrival index) or
  /// "<timestamp> <value>" with non-decreasing timestamps when true.
  /// Blank (whitespace-only) lines are skipped; a malformed line, an
  /// over-long line, or a decreasing timestamp is an InvalidArgument
  /// error reported against `source_name` with its line number.
  Result<DriveReport> DriveLines(std::FILE* f, const std::string& source_name,
                                 bool timestamped, StreamSink& sink,
                                 const ProgressFn& progress = nullptr,
                                 uint64_t progress_every = 0) const;

  /// Zero-copy ingestion over an in-memory text buffer with the DriveLines
  /// grammar: events are parsed straight out of `data` (no per-line
  /// std::string, no stdio), errors carry the same "source:line" messages.
  /// This is the core DriveFile's mmap fast path runs on.
  Result<DriveReport> DriveBuffer(std::string_view data,
                                  const std::string& source_name,
                                  bool timestamped, StreamSink& sink) const;

  /// DriveLines over a file path. Regular files are mmap'ed and ingested
  /// through DriveBuffer (zero-copy); pipes/devices and platforms without
  /// mmap fall back to the buffered stdio path. Behavior is identical for
  /// any input without NUL bytes; stray NULs truncate their line exactly
  /// like the stdio path's strlen, with one pathological exception — a
  /// NUL inside an over-long (> 254 chars) line is rejected by both paths
  /// but may be reported against a different line number (the stdio
  /// buffer re-splits such lines into 255-byte chunks).
  Result<DriveReport> DriveFile(const std::string& path, bool timestamped,
                                StreamSink& sink) const;

  /// DriveLines with crash recovery: writes periodic checkpoints through
  /// `writer` (nullable = disabled) and, when `resume` is non-null,
  /// skips the first `resume->items` events (the input must replay the
  /// stream from the beginning) and continues indices from there into a
  /// sink restored by ResumeFrom. Checkpoints are taken only at batch
  /// boundaries, so a resumed run's batch segmentation — and therefore
  /// its RNG draws — is identical to an uninterrupted run's: the final
  /// state is bit-identical. The report counts only items delivered by
  /// THIS call (resumed runs add resume->items for stream totals).
  Result<DriveReport> DriveLinesCheckpointed(
      std::FILE* f, const std::string& source_name, bool timestamped,
      StreamSink& sink, CheckpointWriter* writer,
      const CheckpointManifest* resume, const ProgressFn& progress = nullptr,
      uint64_t progress_every = 0) const;

  /// DriveLinesCheckpointed over a file path.
  Result<DriveReport> DriveFileCheckpointed(
      const std::string& path, bool timestamped, StreamSink& sink,
      CheckpointWriter* writer, const CheckpointManifest* resume) const;

  /// Reads back the checkpoint committed in `dir` (see
  /// stream/checkpoint.h); pass its position as `resume` above.
  static Result<ResumedCheckpoint> ResumeFrom(const std::string& dir) {
    return LoadCheckpoint(dir);
  }

  const Options& options() const { return options_; }

 private:
  /// Shared pump: delivers buffered items, tracks batches + peak memory.
  class Pump;

  Options options_;
};

/// Allocation-free core of the event-line grammar: how one line failed to
/// parse, if it did. Error strings are built lazily (LineParseError) only
/// on the failing line — successfully parsed lines allocate nothing.
enum class LineParse {
  kOk,           ///< *value (and *ts when timestamped) are set
  kBlank,        ///< whitespace-only line; skip it
  kMalformed,    ///< not "<value>" / "<timestamp> <value>"
  kNonMonotone,  ///< timestamp decreased
};

/// Parses the event on [begin, end) (one line, no terminator) with a
/// tight digit loop over the raw bytes — no sscanf, no locale, no copies.
/// Grammar matches the historical sscanf forms: optional whitespace,
/// optional sign, digits; trailing bytes after the last field ignored.
LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts);

/// Builds the InvalidArgument status for a failed line (cold path).
Status LineParseError(LineParse failure, const std::string& source_name,
                      uint64_t line_no, bool timestamped);

/// The event-line grammar shared by StreamDriver::DriveLines and the
/// sharded driver. Parses one NUL-terminated `line` (as read into a
/// buffer of `line_cap` bytes) into (*value, *ts), enforcing
/// non-decreasing timestamps against `last_ts` when `timestamped`. Blank
/// (whitespace-only) lines set *skip and touch nothing else. Over-long
/// and malformed lines return InvalidArgument mentioning
/// `source_name:line_no`.
Status ParseEventLine(const char* line, size_t line_cap, bool timestamped,
                      const std::string& source_name, uint64_t line_no,
                      Timestamp last_ts, uint64_t* value, Timestamp* ts,
                      bool* skip);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_DRIVER_H_
