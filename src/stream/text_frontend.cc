// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The event-line grammar, the text front end's three stages and the
// read-ahead ring that runs them (see text_frontend.h). ParseEventSpan is
// declared in stream/driver.h.

#include "stream/text_frontend.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "util/bits.h"

namespace swsample {

namespace {

/// The grammar's whitespace set (what sscanf would skip).
inline bool IsSpaceByte(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Tight decimal parse over raw bytes: optional whitespace, optional
/// sign, at least one digit; advances `p` past the digits. No locale, no
/// errno, no copies — this is the per-line hot loop of the parse stage.
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

/// Where a scan over a block's lines stands; ScanEventLines advances it.
struct LineCursor {
  const char* pos = nullptr;  ///< next unscanned byte
  uint64_t line_no = 0;       ///< lines consumed so far, blank ones too
  StreamIndex index = 0;      ///< index the next event gets
  Timestamp last_ts = 0;      ///< the last event's timestamp
};

/// The event-line grammar over the whole lines from cursor.pos up to
/// `end` (the last one may lack its newline): parses them into `out` as
/// Item{value, index, timestamp}, where index counts events from
/// cursor.index and, when `timestamped` is false, the timestamp is the
/// index. Stops after the event that fills `out`, when the lines run out
/// or at the first failing line, and returns the events written.
/// `*failure` is kOk unless a line failed; then the failing line is
/// cursor.line_no.
size_t ScanEventLines(const char* end, bool timestamped, LineCursor& cursor,
                      std::span<Item> out, LineParse* failure) {
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
    ++line_no;
    if (static_cast<size_t>(nl - p) > kMaxEventLineChars) {
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

/// The block-relative line of event number `events` (1-based). Rescans
/// the block; only an error message needs it.
uint64_t LineOfEvent(const TextBlock& block, uint64_t events) {
  LineCursor cursor{block.bytes.data(), 0, 0, INT64_MIN};
  Item scratch[64];
  LineParse ignored = LineParse::kOk;
  while (events > 0) {
    const size_t got = ScanEventLines(
        block.bytes.data() + block.size, block.timestamped, cursor,
        std::span<Item>(scratch, std::min<uint64_t>(events, 64)), &ignored);
    if (got == 0) break;  // fewer events than asked for
    events -= got;
  }
  return cursor.line_no;
}

/// The InvalidArgument a failed line becomes: "source_name:line_no: ...".
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
          std::to_string(kMaxEventLineChars) + " characters)");
    case LineParse::kMalformed:
    default:
      return Status::InvalidArgument(
          where + ": malformed event line (expected " +
          (timestamped ? "\"<timestamp> <value>\")" : "\"<value>\")"));
  }
}

/// Fills `dst` from `f`, retrying EINTR, and returns the bytes read: fewer
/// than dst.size() only at the end of the file, which sets *eof. A failed
/// read is an InvalidArgument naming `source_name`.
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

TextBlock::TextBlock(bool timestamped)
    : bytes(kTextBlockBytes),
      timestamped(timestamped),
      items(kTextBlockBytes / 16) {}

void TextBlock::Parse() {
  const char* const end = bytes.data() + size;
  LineCursor cursor{bytes.data(), 0, 0, INT64_MIN};
  // The first event alone, to learn its line: a timestamp decrease across
  // the seam with the block before is reported there.
  count = ScanEventLines(end, timestamped, cursor,
                         std::span<Item>(items.data(), 1), &failure);
  first_line = cursor.line_no;
  while (failure == LineParse::kOk && cursor.pos != end) {
    if (count == items.size()) items.resize(2 * items.size());
    count += ScanEventLines(end, timestamped, cursor,
                            std::span<Item>(items).subspan(count), &failure);
  }
  lines = cursor.line_no;
}

bool ParseJob::TryParse() {
  int queued = kQueued;
  if (!state.compare_exchange_strong(queued, kParsing)) return false;
  Parse();
  state = kParsed;
  state.notify_one();
  return true;
}

void ParseJob::AwaitParsed() {
  TryParse();
  for (int seen = state; seen != kParsed; seen = state) state.wait(seen);
}

namespace {

/// The read stage: fills blocks from a FILE* read sequentially, so pipes
/// and stdin work too.
class BlockReader {
 public:
  /// `f` and `source_name` are borrowed for the reader's lifetime.
  BlockReader(std::FILE* f, const std::string& source_name)
      : file_(f), source_name_(source_name) {
    carry_.reserve(kMaxEventLineChars);
  }

  /// Fills `block` with the next block. False when there is none: the
  /// input ended or a read failed, or the line after the last block is
  /// over-long (LineSequencer::Finish reports which).
  bool Next(TextBlock& block) {
    if (eof_ || carry_too_long_ || !status_.ok()) return false;
    std::copy(carry_.begin(), carry_.end(), block.bytes.begin());
    auto got = ReadBlock(file_,
                         std::span<char>(block.bytes).subspan(carry_.size()),
                         source_name_, &eof_);
    if (!got.ok()) {
      status_ = got.status();
      return false;
    }
    const size_t size = carry_.size() + got.value();
    carry_.clear();
    if (eof_) {
      block.size = size;
      return size > 0;
    }
    size_t cut = size;
    while (cut > 0 && block.bytes[cut - 1] != '\n') --cut;
    // A carry already over the cap is an over-long line, so a block never
    // has to grow.
    if (size - cut > kMaxEventLineChars) {
      carry_too_long_ = true;
    } else {
      carry_.assign(block.bytes.begin() + cut, block.bytes.begin() + size);
    }
    block.size = cut;
    return cut > 0;
  }

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
  /// `source_name` is borrowed for the sequencer's lifetime; `resume` as
  /// for ParseRing::Run.
  LineSequencer(const std::string& source_name, bool timestamped,
                const CheckpointManifest* resume)
      : source_name_(source_name), timestamped_(timestamped) {
    if (resume != nullptr) {
      skip_ = resume->items;
      resume_ts_ = resume->last_ts;
    }
  }

  /// Takes the next block: checks its first timestamp against the block
  /// before, drops what the resume point covers, delivers the rest and
  /// then fails on the block's failing line, if it has one, so events
  /// before an error are delivered first.
  Status Take(TextBlock& block, const DeliverFn& deliver) {
    const std::span<Item> items(block.items.data(), block.count);
    if (timestamped_ && !items.empty() &&
        items.front().timestamp < last_ts_) {
      return EventLineError(LineParse::kNonMonotone, source_name_,
                            line_no_ + block.first_line, timestamped_);
    }
    const StreamIndex base = index_;
    uint64_t skipped = 0;
    if (index_ < skip_) {
      skipped = std::min<uint64_t>(items.size(), skip_ - index_);
      // The clock handoff catches a resume against a different stream.
      if (timestamped_ && skipped > 0 && base + skipped == skip_ &&
          items[skipped - 1].timestamp != resume_ts_) {
        return Status::InvalidArgument(
            source_name_ + ":" +
            std::to_string(line_no_ + LineOfEvent(block, skipped)) +
            ": replayed input does not match the checkpoint (timestamp "
            "diverges at the resume point)");
      }
    }
    index_ += items.size();
    if (timestamped_ && !items.empty()) last_ts_ = items.back().timestamp;
    if (skipped < items.size()) {
      if (Status s = deliver(items.subspan(skipped), base); !s.ok()) {
        return s;
      }
    }
    line_no_ += block.lines;
    if (block.failure != LineParse::kOk) {
      return EventLineError(block.failure, source_name_, line_no_,
                            timestamped_);
    }
    return Status::Ok();
  }

  /// The end of the input, after the last block; `reader` tells how the
  /// reads ended.
  Status Finish(const BlockReader& reader) const {
    if (reader.carry_too_long()) {
      return EventLineError(LineParse::kTooLong, source_name_, line_no_ + 1,
                            timestamped_);
    }
    if (!reader.status().ok()) return reader.status();
    if (index_ < skip_) {
      return Status::InvalidArgument(
          source_name_ + ": replayed input ends before the checkpoint's " +
          std::to_string(skip_) + " ingested events");
    }
    return Status::Ok();
  }

 private:
  const std::string& source_name_;
  const bool timestamped_;
  uint64_t skip_ = 0;        // events already ingested before resume
  Timestamp resume_ts_ = 0;  // the checkpoint's clock at the handoff
  StreamIndex index_ = 0;    // events taken so far, skipped ones too
  uint64_t line_no_ = 0;     // lines of the blocks taken so far
  Timestamp last_ts_ = 0;    // the last event's timestamp
};

/// StreamDriver's parsing threads for one ring. Each parses the newest
/// queued job it can claim, since the ring's caller parses from the
/// oldest, and sleeps until the next block is queued when none is left.
/// The threads start at the second queued block; destruction stops and
/// joins them.
class ParseHelpers {
 public:
  ParseHelpers(std::span<ParseJob> jobs, size_t threads)
      : jobs_(jobs), wanted_(threads) {}
  ParseHelpers(const ParseHelpers&) = delete;
  ParseHelpers& operator=(const ParseHelpers&) = delete;

  ~ParseHelpers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }

  /// Block `block` was queued.
  void Queue(uint64_t block) {
    if (wanted_ == 0) return;
    if (threads_.empty() && block > 0) {
      threads_.reserve(wanted_);
      for (size_t t = 0; t < wanted_; ++t) {
        threads_.emplace_back([this] { Loop(); });
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queued_ = block + 1;
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    uint64_t seen = 0;  // queued_ when this thread last found nothing
    for (;;) {
      uint64_t newest = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || queued_ != seen; });
        if (stop_) return;
        newest = queued_;
      }
      seen = newest;
      // Blocks older than the ring's depth were taken back already.
      for (uint64_t b = newest; b > 0 && newest - b < jobs_.size(); --b) {
        if (jobs_[(b - 1) % jobs_.size()].TryParse()) {
          seen = 0;  // look again: more blocks may be queued by now
          break;
        }
      }
    }
  }

  const std::span<ParseJob> jobs_;
  const size_t wanted_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t queued_ = 0;  // blocks queued so far, under mu_
  bool stop_ = false;    // under mu_
  std::vector<std::thread> threads_;
};

}  // namespace

ParseRing::ParseRing(size_t depth, bool timestamped)
    : jobs_(depth), timestamped_(timestamped) {
  for (ParseJob& job : jobs_) job.timestamped = timestamped;
}

Status ParseRing::Run(std::FILE* f, const std::string& source_name,
                      const CheckpointManifest* resume,
                      const DeliverFn& deliver, const QueueFn& queue) {
  BlockReader reader(f, source_name);
  LineSequencer sequencer(source_name, timestamped_, resume);
  const uint64_t depth = jobs_.size();
  uint64_t read = 0;
  uint64_t taken = 0;
  for (;;) {
    while (read - taken < depth && reader.Next(jobs_[read % depth])) {
      ParseJob& job = jobs_[read % depth];
      job.state = ParseJob::kQueued;
      queue(job, read++);
    }
    if (taken == read) break;
    // While the oldest block is not parsed yet, parse queued blocks nobody
    // has claimed, from the oldest, instead of waiting idle.
    ParseJob& job = jobs_[taken % depth];
    for (uint64_t b = taken; b < read && !job.parsed(); ++b) {
      jobs_[b % depth].TryParse();
    }
    job.AwaitParsed();
    ++taken;
    if (Status s = sequencer.Take(job, deliver); !s.ok()) return s;
  }
  return sequencer.Finish(reader);
}

size_t DefaultParseHelpers() {
  size_t cpus = 0;
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<size_t>(CPU_COUNT(&set));
  }
#endif
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  return std::min(cpus > 0 ? cpus - 1 : 0, kMaxParseHelpers);
}

Status ParseLines(std::FILE* f, const std::string& source_name,
                  bool timestamped, const CheckpointManifest* resume,
                  const DeliverFn& deliver, size_t helpers) {
  ParseRing ring(kParseJobsPerThread * (helpers + 1), timestamped);
  ParseHelpers pool(ring.jobs(), helpers);
  return ring.Run(f, source_name, resume, deliver,
                  [&pool](ParseJob&, uint64_t block) { pool.Queue(block); });
}

}  // namespace swsample
