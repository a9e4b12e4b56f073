// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/driver.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "stream/text_frontend.h"
#include "util/file_ops.h"

namespace swsample {

namespace {
using Clock = std::chrono::steady_clock;

// Shared epilogue of every Drive* method: stamps timing, throughput and
// final/peak memory into the report.
void Finalize(Clock::time_point begin, StreamSink& sink,
              DriveReport* report) {
  report->seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  report->memory_words = sink.MemoryWords();
  report->peak_memory_words =
      std::max(report->peak_memory_words, report->memory_words);
  if (report->seconds > 0) {
    report->items_per_sec =
        static_cast<double>(report->items) / report->seconds;
  }
}

}  // namespace

StreamDriver::StreamDriver(const Options& options) : options_(options) {}

/// Accumulates items into batch_size runs, forwards them to the sink,
/// and maintains the report counters. Not reentrant; one Pump per Drive.
class StreamDriver::Pump {
 public:
  Pump(const Options& options, StreamSink& sink, DriveReport* report)
      : options_(options), sink_(sink), report_(report) {
    if (options_.batch_size > 0) buffer_.reserve(options_.batch_size);
  }

  void Push(const Item& item) {
    if (options_.batch_size == 0) {
      if (options_.track_batch_latency) {
        const auto t0 = Clock::now();
        sink_.Observe(item);
        latencies_.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      } else {
        sink_.Observe(item);
      }
      ++report_->items;
      ++report_->batches;  // a "batch" of one, for uniform reporting
      ProbeMaybe();
      return;
    }
    buffer_.push_back(item);
    if (buffer_.size() >= options_.batch_size) Flush();
  }

  /// Feeds a span with the same batch segmentation Push-by-one would
  /// produce, but delivers every full batch_size run as a subspan of the
  /// caller's storage — no staging copy through buffer_. Only a batch
  /// straddling the span edge (or a partially filled buffer_ on entry)
  /// goes through the buffer.
  void PushSpan(std::span<const Item> items) {
    if (options_.batch_size == 0) {
      for (const Item& item : items) Push(item);
      return;
    }
    size_t off = 0;
    while (off < items.size()) {
      if (buffer_.empty() && items.size() - off >= options_.batch_size) {
        DeliverBatch(items.subspan(off, options_.batch_size));
        off += options_.batch_size;
      } else {
        const size_t take = std::min(options_.batch_size - buffer_.size(),
                                     items.size() - off);
        buffer_.insert(buffer_.end(), items.begin() + off,
                       items.begin() + off + take);
        off += take;
        if (buffer_.size() >= options_.batch_size) Flush();
      }
    }
  }

  void Flush() {
    if (buffer_.empty()) return;
    DeliverBatch(std::span<const Item>(buffer_));
    buffer_.clear();
  }

  /// Stamps p50/p99 batch latency into the report (call once, after the
  /// final Flush). No-op unless track_batch_latency was set.
  void FinishLatencies() {
    if (latencies_.empty()) return;
    std::sort(latencies_.begin(), latencies_.end());
    report_->p50_batch_seconds = latencies_[(latencies_.size() - 1) / 2];
    report_->p99_batch_seconds =
        latencies_[(latencies_.size() - 1) * 99 / 100];
  }

  /// Items accumulated but not yet delivered. Zero exactly at batch
  /// boundaries — the only points where a checkpoint or a progress call
  /// may happen without disturbing the batch segmentation a plain
  /// uninterrupted run would produce.
  size_t buffered() const { return buffer_.size(); }

 private:
  void DeliverBatch(std::span<const Item> batch) {
    if (options_.track_batch_latency) {
      const auto t0 = Clock::now();
      sink_.ObserveBatch(batch);
      latencies_.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    } else {
      sink_.ObserveBatch(batch);
    }
    report_->items += batch.size();
    ++report_->batches;
    ProbeMaybe();
  }

  void ProbeMaybe() {
    if (options_.memory_probe_every == 0) return;
    if (report_->batches % options_.memory_probe_every != 0) return;
    report_->peak_memory_words =
        std::max(report_->peak_memory_words, sink_.MemoryWords());
  }

  const Options& options_;
  StreamSink& sink_;
  DriveReport* report_;
  std::vector<Item> buffer_;
  std::vector<double> latencies_;  // only filled under track_batch_latency
};

DriveReport StreamDriver::Drive(std::span<const Item> items,
                                StreamSink& sink) const {
  DriveReport report;
  const auto begin = Clock::now();
  Pump pump(options_, sink, &report);
  pump.PushSpan(items);
  pump.Flush();
  pump.FinishLatencies();
  Finalize(begin, sink, &report);
  return report;
}

Result<DriveReport> StreamDriver::DriveLines(
    std::FILE* f, const std::string& source_name, bool timestamped,
    StreamSink& sink, CheckpointWriter* writer,
    const CheckpointManifest* resume, const ProgressFn& progress,
    uint64_t progress_every) const {
  if (resume != nullptr) {
    if (resume->shard_items.size() != 1 ||
        resume->shard_items[0] != resume->items) {
      return Status::InvalidArgument(
          source_name +
          ": checkpoint was written by a sharded run; resume it with "
          "ShardedStreamDriver");
    }
    for (const std::vector<Item>& buffer : resume->pending) {
      if (!buffer.empty()) {
        return Status::InvalidArgument(
            source_name + ": single-sink checkpoint has pending items");
      }
    }
  }
  if (!progress) progress_every = 0;
  const uint64_t start = resume == nullptr ? 0 : resume->items;
  uint64_t next_progress =
      progress_every == 0 ? 0 : (start / progress_every + 1) * progress_every;
  DriveReport report;
  const auto begin = Clock::now();
  Pump pump(options_, sink, &report);
  StreamSink* const sinks[] = {&sink};
  // Rebases a block's events to the stream and feeds them in batch_size
  // runs. Checkpoints and progress calls happen only at batch boundaries.
  const LineSequencer::DeliverFn deliver =
      [&](std::span<Item> events, StreamIndex base) -> Status {
    for (Item& event : events) {
      event.index += base;
      if (!timestamped) event.timestamp = static_cast<Timestamp>(event.index);
    }
    while (!events.empty()) {
      const size_t take =
          options_.batch_size == 0
              ? 1
              : std::min<uint64_t>(events.size(),
                                   options_.batch_size - pump.buffered());
      pump.PushSpan(events.first(take));
      const uint64_t delivered = events[take - 1].index + 1;
      const Timestamp last_ts = events[take - 1].timestamp;
      events = events.subspan(take);
      if (pump.buffered() != 0) continue;
      if (writer != nullptr && writer->Due(delivered)) {
        CheckpointManifest manifest;
        manifest.items = delivered;
        manifest.last_ts = timestamped ? last_ts : 0;
        manifest.shard_items = {delivered};
        if (Status s = writer->Write(manifest, sinks); !s.ok()) return s;
      }
      if (progress_every != 0 && delivered >= next_progress) {
        progress(delivered);
        next_progress = (delivered / progress_every + 1) * progress_every;
      }
    }
    return Status::Ok();
  };
  TextBlock block(timestamped);
  BlockReader reader(f, source_name);
  LineSequencer sequencer(source_name, timestamped, resume);
  while (reader.Next(block)) {
    block.Parse();
    if (Status s = sequencer.Take(block, deliver); !s.ok()) return s;
  }
  if (Status s = sequencer.Finish(reader); !s.ok()) return s;
  pump.Flush();
  pump.FinishLatencies();
  Finalize(begin, sink, &report);
  if (writer != nullptr) {
    report.io_retries = writer->io_retries();
    report.io_giveups = writer->io_giveups();
  }
  return report;
}

Result<DriveReport> StreamDriver::DriveFile(const std::string& path,
                                            bool timestamped,
                                            StreamSink& sink) const {
  return DriveFileCheckpointed(path, timestamped, sink, nullptr, nullptr);
}

Result<DriveReport> StreamDriver::DriveFileCheckpointed(
    const std::string& path, bool timestamped, StreamSink& sink,
    CheckpointWriter* writer, const CheckpointManifest* resume) const {
  auto f_or = OpenStdioFile("ingest.open", path);
  if (!f_or.ok()) return f_or.status();
  std::FILE* f = f_or.value();
  auto result = DriveLines(f, path, timestamped, sink, writer, resume);
  std::fclose(f);
  return result;
}

}  // namespace swsample
