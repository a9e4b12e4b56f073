// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// The one text front end behind StreamDriver::DriveLines and
/// ShardedStreamDriver::DriveLines (internal to the two drivers). Text
/// input passes three stages:
///
///   read      BlockReader fills a TextBlock with kTextBlockBytes of input,
///             cuts it after its last newline and carries the partial last
///             line into the next block (a carry over kMaxEventLineChars is
///             an over-long line, so a block never has to grow);
///   parse     TextBlock::Parse runs the event-line grammar over the block,
///             numbering its events from 0 — on the calling thread for one
///             sink, on the engine's workers for the sharded driver;
///   in order  LineSequencer takes the parsed blocks back in stream order:
///             it checks timestamps across block seams, numbers lines and
///             events, drops the events a resumed checkpoint covers
///             (checking the handoff and a replay that ends short), hands
///             the rest to the driver and reports errors in stream order.
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

/// The read stage: fills blocks from a FILE* read sequentially, so pipes
/// and stdin work too.
class BlockReader {
 public:
  /// `f` and `source_name` are borrowed for the reader's lifetime.
  BlockReader(std::FILE* f, const std::string& source_name);

  /// Fills `block` with the next block. False when there is none: the
  /// input ended or a read failed, or the line after the last block is
  /// over-long (LineSequencer::Finish reports which).
  bool Next(TextBlock& block);

  const Status& status() const { return status_; }
  bool carry_too_long() const { return carry_too_long_; }

 private:
  std::FILE* file_;
  const std::string& source_name_;
  std::vector<char> carry_;
  bool eof_ = false;
  bool carry_too_long_ = false;
  Status status_;
};

/// The in-order stage: takes parsed blocks back in stream order.
class LineSequencer {
 public:
  /// Receives a block's events past the resume point: block-relative
  /// indices (and sequence timestamps) that `base` rebases to the stream.
  using DeliverFn =
      std::function<Status(std::span<Item> events, StreamIndex base)>;

  /// `source_name` is borrowed for the sequencer's lifetime. With a
  /// non-null `resume`, the first `resume->items` events are parsed but not
  /// delivered (the input must replay the stream from the start), and the
  /// timestamp at the handoff must match the checkpoint's.
  LineSequencer(const std::string& source_name, bool timestamped,
                const CheckpointManifest* resume);

  /// Takes the next block: checks its first timestamp against the block
  /// before, drops what the resume point covers, delivers the rest and
  /// then fails on the block's failing line, if it has one, so events
  /// before an error are delivered first.
  Status Take(TextBlock& block, const DeliverFn& deliver);

  /// The end of the input, after the last block; `reader` tells how the
  /// reads ended.
  Status Finish(const BlockReader& reader) const;

 private:
  const std::string& source_name_;
  const bool timestamped_;
  uint64_t skip_ = 0;        // events already ingested before resume
  Timestamp resume_ts_ = 0;  // the checkpoint's clock at the handoff
  StreamIndex index_ = 0;    // events taken so far, skipped ones too
  uint64_t line_no_ = 0;     // lines of the blocks taken so far
  Timestamp last_ts_ = 0;    // the last event's timestamp
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_TEXT_FRONTEND_H_
