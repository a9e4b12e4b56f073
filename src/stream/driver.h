// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Batched ingestion engine: feeds in-memory or text streams through any
/// StreamSink — a sampler or an estimator built by CreateSink
/// — in batches, and reports throughput and live memory. This is the one
/// place single-threaded harness code pumps items from — benchmarks,
/// examples and the CLI share it.
///
/// Text input has exactly one grammar, ScanEventLines below. EventReader
/// runs it over files, pipes and stdin read in fixed 64 KiB blocks and
/// over in-memory buffers scanned in place, for DriveLines, DriveFile and
/// DriveBuffer. The sharded engine (stream/sharded_driver.h) reads its own
/// blocks cut at newlines and runs the same scan on its worker threads, so
/// every entry point accepts the same input with the same errors.
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
/// the source; Drive cannot fail and returns a plain report.

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

  /// Feeds a pre-materialized run of consecutive items. Synthetic streams
  /// are spans too: materialize them with WorkloadGenerator
  /// (stream/workload.h). The sink's clock ends at the last item's
  /// timestamp; a caller whose stream ends in quiet steps moves it on with
  /// sink.AdvanceTime afterwards.
  DriveReport Drive(std::span<const Item> items, StreamSink& sink) const;

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
/// parse, if it did. Error strings are built only for the failing line
/// (EventLineError) — successfully parsed lines allocate nothing.
enum class LineParse {
  kOk,           ///< *value (and *ts when timestamped) are set
  kBlank,        ///< whitespace-only line; skip it
  kMalformed,    ///< not "<value>" / "<timestamp> <value>"
  kNonMonotone,  ///< timestamp decreased
  kTooLong,      ///< longer than EventReader::kMaxLineChars (ScanEventLines)
};

/// Parses the event on [begin, end) (one line, no terminator) with a
/// tight digit loop over the raw bytes — no sscanf, no locale, no copies.
/// Grammar matches the historical sscanf forms: optional whitespace,
/// optional sign, digits; trailing bytes after the last field ignored.
LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts);

/// Where a scan over event lines stands; ScanEventLines advances it.
struct LineCursor {
  const char* pos = nullptr;  ///< next unscanned byte
  uint64_t line_no = 0;       ///< lines consumed so far, blank ones too
  StreamIndex index = 0;      ///< index the next event gets
  Timestamp last_ts = 0;      ///< the last event's timestamp
};

/// The event-line grammar over one block of text: parses the lines from
/// cursor.pos up to `end` into `out` as Item{value, index, timestamp},
/// where index counts events from cursor.index and, when `timestamped` is
/// false, the timestamp is the index. Lines end at newlines; a NUL byte
/// ends the parsed part of its line; blank lines are skipped; lines longer
/// than EventReader::kMaxLineChars fail; timestamps must not fall below
/// cursor.last_ts or the event before them.
///
/// Stops after the event that fills `out`, when the complete lines run out
/// or at the first failing line, and returns the events written. `*failure`
/// is kOk unless a line failed; then the failing line is cursor.line_no.
/// With `final` false a last line without a newline is left unconsumed
/// (cursor.pos at its start) for the caller to carry into the next block;
/// with `final` true it is parsed.
size_t ScanEventLines(const char* end, bool final, bool timestamped,
                      LineCursor& cursor, std::span<Item> out,
                      LineParse* failure);

/// The InvalidArgument a failed line becomes: "source_name:line_no: ...".
Status EventLineError(LineParse failure, const std::string& source_name,
                      uint64_t line_no, bool timestamped);

/// The InvalidArgument of a resumed drive whose replayed input disagrees
/// with the checkpoint at the handoff event on line `line_no`.
Status ResumeHandoffError(const std::string& source_name, uint64_t line_no);

/// The InvalidArgument of a resumed drive whose replayed input ends
/// before the checkpoint's `items` ingested events.
Status ResumeShortError(const std::string& source_name, uint64_t items);

/// Fills `dst` from `f`, retrying EINTR, and returns the bytes read: fewer
/// than dst.size() only at the end of the file, which sets *eof. A failed
/// read is an InvalidArgument naming `source_name`.
Result<size_t> ReadBlock(std::FILE* f, std::span<char> dst,
                         const std::string& source_name, bool* eof);

/// The one reader of parsed events for StreamDriver. Reads a FILE* in
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
  LineCursor cursor_;          // cursor_.pos: next unscanned byte
  const char* end_ = nullptr;  // end of the bytes read so far
  bool eof_ = false;           // nothing follows end_
  std::string source_name_;
  bool timestamped_;
  uint64_t skip_ = 0;          // events already ingested before resume
  Timestamp resume_ts_ = 0;    // the checkpoint's clock at the handoff
  Status status_;
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_DRIVER_H_
