// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The one text front end behind StreamDriver::DriveLines and
/// ShardedStreamDriver::DriveLines (internal to the two drivers). Both run
/// the same read-ahead ring, ParseRing::Run, over a fixed set of parse
/// jobs, all three stages driven from the calling thread:
///
///   read      fills a free job with kTextBlockBytes of input, cut after
///             its last newline; the partial last line is carried into the
///             next block (a carry over kMaxEventLineChars is an over-long
///             line, so a block never has to grow). The job is queued.
///   parse     TextBlock::Parse runs the event-line grammar over the block,
///             numbering its events from 0. Whoever claims a queued job
///             first parses it: a parsing thread (the sharded engine's
///             workers, or StreamDriver's helper threads, which take the
///             newest job), or the caller, which parses unclaimed jobs
///             from the oldest rather than wait.
///   in order  the caller takes the oldest job back once it is parsed:
///             checks timestamps across block seams, numbers lines and
///             events, drops the events a resumed checkpoint covers
///             (checking the handoff and a replay that ends short), hands
///             the rest to the driver and reports errors in stream order.
///
/// Reads run up to the ring's depth of blocks ahead of delivery, so after
/// an error the FILE* may be past the failing block, and on a live pipe
/// delivery lags the input by up to the ring.
///
/// Grammar, per line (lines end at '\n'): "<value>", or "<timestamp>
/// <value>" with timestamps non-decreasing from 0; blank (whitespace-only)
/// lines are skipped; a NUL byte ends the parsed part of its line, which
/// still runs to the next newline; a line longer than kMaxEventLineChars, a
/// malformed line or a decreasing timestamp is an InvalidArgument naming
/// "source:line"; a failed read (EINTR is retried) is an InvalidArgument
/// naming the source.

#ifndef SWSAMPLE_STREAM_TEXT_FRONTEND_H_
#define SWSAMPLE_STREAM_TEXT_FRONTEND_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// One block of whole event lines and what parsing it found.
struct TextBlock {
  explicit TextBlock(bool timestamped = false);

  /// Runs the event-line grammar over [0, size). Indices count events
  /// from 0 within the block, and so do timestamps in sequence mode; the
  /// driver rebases both. The block does not know the timestamp before
  /// it, so its first event is checked against it only in order.
  void Parse();

  std::vector<char> bytes;  ///< [0, size) holds whole lines
  size_t size = 0;
  bool timestamped = false;
  std::vector<Item> items;  ///< [0, count) parsed; grows as needed
  size_t count = 0;
  uint64_t lines = 0;       ///< lines scanned, up to a failing one
  uint64_t first_line = 0;  ///< line of the first event, if count > 0
  LineParse failure = LineParse::kOk;
};

/// A block in the ring with its claim state. Whoever claims a queued job
/// first parses it; the ring reads the results only once it is parsed.
struct ParseJob : TextBlock {
  enum State : int { kQueued, kParsing, kParsed };

  /// Parses the job unless another thread claimed it first (one
  /// compare-exchange, kQueued -> kParsing). True for exactly one caller
  /// per queuing. A parsing thread may hold a stale reference to a job the
  /// ring already took back and queued again; the claim makes that safe.
  bool TryParse();

  bool parsed() const { return state == kParsed; }

  /// Returns once the job is parsed, parsing it here if nobody has
  /// claimed it.
  void AwaitParsed();

  std::atomic<int> state{kParsed};
};

/// Receives a block's events past the resume point: block-relative
/// indices (and sequence timestamps) that `base` rebases to the stream.
using DeliverFn =
    std::function<Status(std::span<Item> events, StreamIndex base)>;

/// Parse jobs in flight per parsing thread: one being parsed, one queued.
/// Bounds the read-ahead, and so the front end's memory.
inline constexpr size_t kParseJobsPerThread = 2;

/// The read-ahead ring both drivers run (see the file comment). Declare it
/// before whatever parses its jobs on other threads: those threads must be
/// stopped before the jobs go.
class ParseRing {
 public:
  /// Hands a queued job to the parsing threads; `block` numbers the job's
  /// block in the stream from 0.
  using QueueFn = std::function<void(ParseJob& job, uint64_t block)>;

  ParseRing(size_t depth, bool timestamped);

  /// Reads `f` (borrowed) to its end in blocks, parses them and delivers
  /// their events in stream order through `deliver`, on the calling
  /// thread. With a non-null `resume`, the first `resume->items` events are
  /// parsed but not delivered (the input must replay the stream from the
  /// start), and the timestamp at the handoff must match the
  /// checkpoint's. Returns the first error in stream order; the events
  /// before a failing line are delivered first. On return, jobs may still
  /// be queued with the parsing threads.
  Status Run(std::FILE* f, const std::string& source_name,
             const CheckpointManifest* resume, const DeliverFn& deliver,
             const QueueFn& queue);

  /// The ring's jobs; job i holds blocks i, i + depth, ...
  std::span<ParseJob> jobs() { return jobs_; }

 private:
  std::vector<ParseJob> jobs_;
  const bool timestamped_;
};

/// Most helper threads StreamDriver::DriveLines parses on.
inline constexpr size_t kMaxParseHelpers = 3;

/// Helper threads StreamDriver::DriveLines runs: the CPUs in the process's
/// affinity mask less the calling thread, at most kMaxParseHelpers.
size_t DefaultParseHelpers();

/// The single-sink front end: ParseRing::Run over a ring of
/// kParseJobsPerThread * (helpers + 1) jobs, whose queued blocks `helpers`
/// helper threads parse, newest first. The helpers start once the second
/// block is read (so a one-block input starts none) and only parse;
/// `deliver` runs on the calling thread. They are joined before this
/// returns, also on an error.
Status ParseLines(std::FILE* f, const std::string& source_name,
                  bool timestamped, const CheckpointManifest* resume,
                  const DeliverFn& deliver, size_t helpers);

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_TEXT_FRONTEND_H_
