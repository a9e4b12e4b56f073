// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/driver.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/bits.h"
#include "util/file_ops.h"

namespace swsample {

namespace {
using Clock = std::chrono::steady_clock;

/// Cap on the items one EventReader::Read parses for StreamDriver; larger
/// batches are assembled in the pump's buffer.
constexpr uint64_t kMaxReadItems = 16384;

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

/// The grammar's whitespace set (what sscanf would skip).
inline bool IsSpaceByte(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Tight decimal parse over raw bytes: optional whitespace, optional
/// sign, at least one digit; advances `p` past the digits. No locale, no
/// errno, no copies — this is the per-line hot loop of EventReader.
/// Matches the strtoull family the grammar historically used: digit
/// overflow saturates the magnitude at UINT64_MAX (the sign is reported
/// separately so callers can reproduce strtoull's modular '-' handling
/// or strtoll's signed saturation).
inline bool ParseDecimal(const char*& p, const char* end, uint64_t* magnitude,
                         bool* negative) {
  while (p != end && IsSpaceByte(*p)) ++p;
  *negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    *negative = *p == '-';
    ++p;
  }
  if (p == end || *p < '0' || *p > '9') return false;
  uint64_t v = 0;
  bool overflow = false;
  if constexpr (std::endian::native == std::endian::little) {
    // SWAR gulp: fold eight digits per multiply ladder while the
    // accumulated value provably cannot overflow (v * 1e8 + 99999999 <=
    // UINT64_MAX); the scalar loop below handles the tail and reproduces
    // the exact saturation semantics near the limit.
    constexpr uint64_t kGulpSafe = (UINT64_MAX - 99999999) / 100000000;
    while (end - p >= 8 && v <= kGulpSafe) {
      uint64_t chunk;
      __builtin_memcpy(&chunk, p, 8);
      if (!IsEightDigits(chunk)) break;
      v = v * 100000000 + ParseEightDigits(chunk);
      p += 8;
    }
  }
  while (p != end && *p >= '0' && *p <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*p - '0');
    if (v > (UINT64_MAX - digit) / 10) {
      overflow = true;
    } else {
      v = v * 10 + digit;
    }
    ++p;
  }
  *magnitude = overflow ? UINT64_MAX : v;
  return true;
}

/// strtoll-style signed saturation of a parsed (magnitude, sign).
inline Timestamp SaturateTimestamp(uint64_t magnitude, bool negative) {
  if (negative) {
    return magnitude > static_cast<uint64_t>(INT64_MAX)
               ? INT64_MIN
               : -static_cast<Timestamp>(magnitude);
  }
  return magnitude > static_cast<uint64_t>(INT64_MAX)
             ? INT64_MAX
             : static_cast<Timestamp>(magnitude);
}

}  // namespace

LineParse ParseEventSpan(const char* begin, const char* end, bool timestamped,
                         Timestamp last_ts, uint64_t* value, Timestamp* ts) {
  const char* p = begin;
  while (p != end && IsSpaceByte(*p)) ++p;
  if (p == end) return LineParse::kBlank;
  bool negative = false;
  if (timestamped) {
    uint64_t ts_magnitude = 0;
    bool ts_negative = false;
    uint64_t magnitude = 0;
    if (!ParseDecimal(p, end, &ts_magnitude, &ts_negative) ||
        !ParseDecimal(p, end, &magnitude, &negative)) {
      return LineParse::kMalformed;
    }
    *ts = SaturateTimestamp(ts_magnitude, ts_negative);
    *value = negative ? (0 - magnitude) : magnitude;
    if (*ts < last_ts) return LineParse::kNonMonotone;
    return LineParse::kOk;
  }
  uint64_t magnitude = 0;
  if (!ParseDecimal(p, end, &magnitude, &negative)) {
    return LineParse::kMalformed;
  }
  *value = negative ? (0 - magnitude) : magnitude;
  return LineParse::kOk;
}

size_t ScanEventLines(const char* end, bool final, bool timestamped,
                      LineCursor& cursor, std::span<Item> out,
                      LineParse* failure) {
  // The cursor lives in locals while scanning: stores into `out` could
  // otherwise alias it and force a reload per line.
  const char* p = cursor.pos;
  uint64_t line_no = cursor.line_no;
  StreamIndex index = cursor.index;
  Timestamp last_ts = cursor.last_ts;
  LineParse result = LineParse::kOk;
  size_t n = 0;
  while (n < out.size() && p != end) {
    // One word-wise scan finds whichever of '\n' or '\0' comes first. A
    // NUL ends the parsed span, but the line itself (for advancing and for
    // the length limit) still runs to the newline.
    const char* const hit = FindNewlineOrNul(p, end);
    const char* nl = hit;
    if (hit != end && *hit == '\0') {
      nl = static_cast<const char*>(std::memchr(hit, '\n', end - hit));
      if (nl == nullptr) nl = end;
    }
    if (nl == end && !final) break;  // the caller carries the partial line
    ++line_no;
    if (static_cast<size_t>(nl - p) > EventReader::kMaxLineChars) {
      result = LineParse::kTooLong;
      break;
    }
    const char* const line = p;
    p = nl == end ? end : nl + 1;
    uint64_t value = 0;
    Timestamp ts = 0;
    const LineParse parsed =
        ParseEventSpan(line, hit, timestamped, last_ts, &value, &ts);
    if (parsed == LineParse::kBlank) continue;
    if (parsed != LineParse::kOk) {
      result = parsed;
      break;
    }
    if (timestamped) {
      last_ts = ts;
    } else {
      ts = static_cast<Timestamp>(index);
    }
    out[n++] = Item{value, index++, ts};
  }
  cursor = LineCursor{p, line_no, index, last_ts};
  *failure = result;
  return n;
}

Status EventLineError(LineParse failure, const std::string& source_name,
                      uint64_t line_no, bool timestamped) {
  const std::string where = source_name + ":" + std::to_string(line_no);
  switch (failure) {
    case LineParse::kNonMonotone:
      return Status::InvalidArgument(where +
                                     ": timestamps must be non-decreasing");
    case LineParse::kTooLong:
      return Status::InvalidArgument(
          where + ": event line too long (limit " +
          std::to_string(EventReader::kMaxLineChars) + " characters)");
    case LineParse::kMalformed:
    default:
      return Status::InvalidArgument(
          where + ": malformed event line (expected " +
          (timestamped ? "\"<timestamp> <value>\")" : "\"<value>\")"));
  }
}

Status ResumeHandoffError(const std::string& source_name, uint64_t line_no) {
  return Status::InvalidArgument(
      source_name + ":" + std::to_string(line_no) +
      ": replayed input does not match the checkpoint (timestamp "
      "diverges at the resume point)");
}

Status ResumeShortError(const std::string& source_name, uint64_t items) {
  return Status::InvalidArgument(
      source_name + ": replayed input ends before the checkpoint's " +
      std::to_string(items) + " ingested events");
}

Result<size_t> ReadBlock(std::FILE* f, std::span<char> dst,
                         const std::string& source_name, bool* eof) {
  size_t got = 0;
  for (;;) {
    got += std::fread(dst.data() + got, 1, dst.size() - got, f);
    if (got == dst.size()) return got;
    if (!std::ferror(f)) {
      *eof = true;
      return got;
    }
    const int err = errno;
    if (err != EINTR) {
      return Status::InvalidArgument(source_name + ": read error: " +
                                     std::strerror(err));
    }
    std::clearerr(f);
  }
}

EventReader::EventReader(std::FILE* f, std::string source_name,
                         bool timestamped, const CheckpointManifest* resume)
    : file_(f),
      block_(kBlockBytes),
      source_name_(std::move(source_name)),
      timestamped_(timestamped) {
  cursor_.pos = end_ = block_.data();
  if (resume != nullptr) {
    skip_ = resume->items;
    resume_ts_ = resume->last_ts;
  }
}

EventReader::EventReader(std::string_view data, std::string source_name,
                         bool timestamped, const CheckpointManifest* resume)
    : end_(data.data() + data.size()),
      eof_(true),
      source_name_(std::move(source_name)),
      timestamped_(timestamped) {
  cursor_.pos = data.data();
  if (resume != nullptr) {
    skip_ = resume->items;
    resume_ts_ = resume->last_ts;
  }
}

size_t EventReader::Read(std::span<Item> out) {
  if (!status_.ok()) return 0;
  size_t n = 0;
  while (n < out.size()) {
    // Events the checkpoint already covers are parsed (validating the
    // replayed input) into the free tail of `out` and dropped.
    const bool skipping = cursor_.index < skip_;
    const size_t want =
        skipping ? std::min<uint64_t>(out.size() - n, skip_ - cursor_.index)
                 : out.size() - n;
    LineParse failure = LineParse::kOk;
    const size_t got = ScanEventLines(end_, eof_, timestamped_, cursor_,
                                      out.subspan(n, want), &failure);
    if (failure != LineParse::kOk) {
      status_ = EventLineError(failure, source_name_, cursor_.line_no,
                               timestamped_);
      break;
    }
    if (!skipping) {
      n += got;
    } else if (cursor_.index == skip_ && timestamped_ &&
               cursor_.last_ts != resume_ts_) {
      // The clock handoff catches a resume against a different stream.
      status_ = ResumeHandoffError(source_name_, cursor_.line_no);
      break;
    }
    if (got == want) continue;
    // The complete lines ran out.
    if (!eof_) {
      // A carry already over the cap is an over-long line, so the block
      // never has to grow.
      if (static_cast<size_t>(end_ - cursor_.pos) > kMaxLineChars) {
        status_ = EventLineError(LineParse::kTooLong, source_name_,
                                 cursor_.line_no + 1, timestamped_);
        break;
      }
      if (!Refill()) break;
      continue;
    }
    if (cursor_.index < skip_) status_ = ResumeShortError(source_name_, skip_);
    break;
  }
  return n;
}

bool EventReader::Refill() {
  const size_t carry = static_cast<size_t>(end_ - cursor_.pos);
  std::memmove(block_.data(), cursor_.pos, carry);
  char* const dst = block_.data() + carry;
  auto got = ReadBlock(file_, std::span<char>(dst, block_.size() - carry),
                       source_name_, &eof_);
  if (!got.ok()) {
    status_ = got.status();
    return false;
  }
  cursor_.pos = block_.data();
  end_ = dst + got.value();
  return true;
}

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
  EventReader reader(f, source_name, timestamped, resume);
  return Ingest(reader, sink, writer, resume, progress, progress_every);
}

Result<DriveReport> StreamDriver::DriveBuffer(std::string_view data,
                                              const std::string& source_name,
                                              bool timestamped,
                                              StreamSink& sink) const {
  EventReader reader(data, source_name, timestamped);
  return Ingest(reader, sink, nullptr, nullptr, nullptr, 0);
}

Result<DriveReport> StreamDriver::Ingest(EventReader& reader,
                                         StreamSink& sink,
                                         CheckpointWriter* writer,
                                         const CheckpointManifest* resume,
                                         const ProgressFn& progress,
                                         uint64_t progress_every) const {
  const std::string& source_name = reader.source_name();
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
  // Every Read stops at the next batch boundary (or the end of input):
  // the only points where checkpoints and progress calls may happen.
  std::vector<Item> items(
      std::clamp<uint64_t>(options_.batch_size, 1, kMaxReadItems));
  for (;;) {
    const size_t want =
        options_.batch_size == 0
            ? 1
            : std::min<uint64_t>(items.size(),
                                 options_.batch_size - pump.buffered());
    const size_t got = reader.Read(std::span<Item>(items.data(), want));
    if (got == 0) break;
    pump.PushSpan(std::span<const Item>(items.data(), got));
    if (pump.buffered() != 0) continue;
    const Item& last = items[got - 1];
    const uint64_t delivered = last.index + 1;
    if (writer != nullptr && writer->Due(delivered)) {
      CheckpointManifest manifest;
      manifest.items = delivered;
      manifest.last_ts = reader.timestamped() ? last.timestamp : 0;
      manifest.shard_items = {delivered};
      if (Status s = writer->Write(manifest, sinks); !s.ok()) return s;
    }
    if (progress_every != 0 && delivered >= next_progress) {
      progress(delivered);
      next_progress = (delivered / progress_every + 1) * progress_every;
    }
  }
  if (!reader.status().ok()) return reader.status();
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
