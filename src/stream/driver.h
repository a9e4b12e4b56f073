// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Batched ingestion engine: feeds in-memory, generated or text streams
/// through any StreamSink — a sampler or an estimator built by CreateSink
/// — in batches, and reports throughput and live memory. This is the one
/// place single-threaded harness code pumps items from — benchmarks,
/// examples and the CLI share it.
///
/// Text input has exactly one reader, EventReader below: files, pipes and
/// stdin are read in fixed 64 KiB blocks and in-memory buffers are scanned
/// in place, so every entry point (DriveLines, DriveFile, DriveBuffer and
/// the sharded engine in stream/sharded_driver.h) parses the same grammar
/// with the same errors and hands the sink the same batches.
///
/// Ownership: a driver borrows the sink only for the duration of one
/// Drive* call and holds no state between calls.
///
/// Thread-safety: a StreamDriver is immutable after construction and may
/// be shared across threads, but each Drive* call pumps one sink from the
/// calling thread — drive a given sink from one thread at a time.
///
/// Status conventions: malformed input returns InvalidArgument through
/// Result<DriveReport> with "source:line"-prefixed messages (e.g.
/// `events.txt:17: malformed event line (expected "<timestamp> <value>")`);
/// unopenable and unreadable inputs fail the drive with a message naming
/// the source; Drive/DriveSynthetic cannot fail and return plain reports.

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

class EventReader;

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

  /// Progress callback for DriveLines: receives the stream position.
  using ProgressFn = std::function<void(uint64_t items)>;

  /// Feeds a text stream read by EventReader (grammar and errors there).
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

  /// DriveLines over an in-memory text buffer, parsed in place.
  Result<DriveReport> DriveBuffer(std::string_view data,
                                  const std::string& source_name,
                                  bool timestamped, StreamSink& sink) const;

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

  /// The one text-ingest body behind DriveLines and DriveBuffer.
  Result<DriveReport> Ingest(EventReader& reader, StreamSink& sink,
                             CheckpointWriter* writer,
                             const CheckpointManifest* resume,
                             const ProgressFn& progress,
                             uint64_t progress_every) const;

  Options options_;
};

/// Allocation-free core of the event-line grammar: how one line failed to
/// parse, if it did. EventReader builds error strings only on the failing
/// line — successfully parsed lines allocate nothing.
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

/// The one source of parsed events for both drivers. Reads a FILE* in
/// fixed kBlockBytes refills (carrying a partial last line to the front
/// of the block) or scans an in-memory buffer in place as one final block,
/// and yields one Item per event line:
///  * "<value>" when `timestamped` is false (timestamp := arrival index),
///    "<timestamp> <value>" with non-decreasing timestamps when true;
///  * blank (whitespace-only) lines are skipped; a NUL byte ends the
///    parsed part of its line, which still runs to the next newline;
///  * a line longer than kMaxLineChars, a malformed line or a decreasing
///    timestamp is an InvalidArgument naming `source_name:line`;
///  * a failed read (EINTR is retried) is an InvalidArgument naming
///    `source_name`.
/// With a non-null `resume`, the first `resume->items` events are parsed
/// but not yielded (the input must replay the stream from the start), the
/// timestamp at the handoff must match the checkpoint's, and yielded
/// indices continue the checkpoint's numbering.
class EventReader {
 public:
  /// Bytes per refill: the reader's whole memory footprint on file input.
  static constexpr size_t kBlockBytes = 64 * 1024;
  /// Longest accepted event line, not counting its terminator.
  static constexpr size_t kMaxLineChars = 254;

  /// Reads `f` (borrowed; the caller closes it) until end of file.
  EventReader(std::FILE* f, std::string source_name, bool timestamped,
              const CheckpointManifest* resume = nullptr);
  /// Scans `data` in place; it must outlive the reader.
  EventReader(std::string_view data, std::string source_name,
              bool timestamped, const CheckpointManifest* resume = nullptr);

  /// Parses the next events past the resume point into `out` and returns
  /// how many. Fewer than out.size() only at the end of the input or at
  /// the first error; 0 once either is reached — status() tells which.
  size_t Read(std::span<Item> out);

  /// Ok until a parse, read or resume-handoff error stops the reader.
  const Status& status() const { return status_; }
  const std::string& source_name() const { return source_name_; }
  bool timestamped() const { return timestamped_; }

 private:
  bool Refill();

  std::FILE* file_ = nullptr;  // null when scanning a buffer
  std::vector<char> block_;    // kBlockBytes when reading a file
  const char* p_ = nullptr;    // next unscanned byte
  const char* end_ = nullptr;  // end of the bytes read so far
  bool eof_ = false;           // nothing follows end_
  std::string source_name_;
  bool timestamped_;
  uint64_t skip_ = 0;          // events already ingested before resume
  Timestamp resume_ts_ = 0;    // the checkpoint's clock at the handoff
  uint64_t line_no_ = 0;
  StreamIndex index_ = 0;
  Timestamp last_ts_ = 0;
  Status status_;
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_DRIVER_H_
