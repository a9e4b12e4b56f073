// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The event-line grammar and the text front end's three stages (see
// text_frontend.h). ParseEventSpan is declared in stream/driver.h.

#include "stream/text_frontend.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

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

BlockReader::BlockReader(std::FILE* f, const std::string& source_name)
    : file_(f), source_name_(source_name) {
  carry_.reserve(kMaxEventLineChars);
}

bool BlockReader::Next(TextBlock& block) {
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

LineSequencer::LineSequencer(const std::string& source_name,
                             bool timestamped,
                             const CheckpointManifest* resume)
    : source_name_(source_name), timestamped_(timestamped) {
  if (resume != nullptr) {
    skip_ = resume->items;
    resume_ts_ = resume->last_ts;
  }
}

Status LineSequencer::Take(TextBlock& block, const DeliverFn& deliver) {
  const std::span<Item> items(block.items.data(), block.count);
  if (timestamped_ && !items.empty() && items.front().timestamp < last_ts_) {
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
    if (Status s = deliver(items.subspan(skipped), base); !s.ok()) return s;
  }
  line_no_ += block.lines;
  if (block.failure != LineParse::kOk) {
    return EventLineError(block.failure, source_name_, line_no_,
                          timestamped_);
  }
  return Status::Ok();
}

Status LineSequencer::Finish(const BlockReader& reader) const {
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

}  // namespace swsample
