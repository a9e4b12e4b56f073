// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Test helpers for text ingestion: a sink that records every delivery,
// the line-at-a-time reference reading both drivers are checked against,
// and text in an anonymous temporary file for the FILE* drive entry points.

#ifndef SWSAMPLE_TESTS_TEXT_INGEST_H_
#define SWSAMPLE_TESTS_TEXT_INGEST_H_

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.h"
#include "stream/driver.h"
#include "util/serial.h"

namespace swsample {

/// Records every ObserveBatch run (an Observe is a run of one) and every
/// AdvanceTime, and forwards them to `inner` when it is set. Persists as
/// `inner`, so checkpoint serializers accept it in place of the sink.
class RecordingSink final : public StreamSink {
 public:
  explicit RecordingSink(StreamSink* inner = nullptr) : inner_(inner) {}

  void Observe(const Item& item) override {
    batches_.push_back({item});
    if (inner_ != nullptr) inner_->Observe(item);
  }
  void ObserveBatch(std::span<const Item> items) override {
    batches_.emplace_back(items.begin(), items.end());
    if (inner_ != nullptr) inner_->ObserveBatch(items);
  }
  void AdvanceTime(Timestamp now) override {
    advances_.push_back(now);
    if (inner_ != nullptr) inner_->AdvanceTime(now);
  }
  uint64_t MemoryWords() const override {
    return inner_ == nullptr ? 0 : inner_->MemoryWords();
  }
  const char* name() const override {
    return inner_ == nullptr ? "recording" : inner_->name();
  }
  bool persistable() const override {
    return inner_ != nullptr && inner_->persistable();
  }
  void SaveState(BinaryWriter* w) const override {
    if (inner_ != nullptr) inner_->SaveState(w);
  }

  const std::vector<std::vector<Item>>& batches() const { return batches_; }
  const std::vector<Timestamp>& advances() const { return advances_; }

  /// Every recorded item in delivery order.
  std::vector<Item> items() const {
    std::vector<Item> out;
    for (const auto& batch : batches_) {
      out.insert(out.end(), batch.begin(), batch.end());
    }
    return out;
  }

 private:
  StreamSink* inner_;
  std::vector<std::vector<Item>> batches_;
  std::vector<Timestamp> advances_;
};

/// SaveState bytes of `sink`.
inline std::string StateBytes(const StreamSink& sink) {
  BinaryWriter w;
  sink.SaveState(&w);
  return w.Release();
}

/// The reference reading of event text, one line at a time and with no
/// block code: every event the drivers must deliver from `text`, or the
/// error they must stop with. Lines end at '\n'; a NUL ends the parsed part
/// of its line; a line over kMaxEventLineChars fails before it is parsed;
/// blank lines are skipped; timestamps must not decrease from 0. With a
/// non-null `resume`, the first resume->items events are read but not
/// returned, the last of them must carry the checkpoint's timestamp, and
/// the input must hold at least that many events.
inline Result<std::vector<Item>> ReadEvents(
    std::string_view text, const std::string& source_name, bool timestamped,
    const CheckpointManifest* resume = nullptr) {
  const uint64_t skip = resume == nullptr ? 0 : resume->items;
  std::vector<Item> events;
  StreamIndex index = 0;
  Timestamp last_ts = 0;
  uint64_t line_no = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    const std::string where = source_name + ":" + std::to_string(++line_no);
    if (line.size() > kMaxEventLineChars) {
      return Status::InvalidArgument(where +
                                     ": event line too long (limit 254 "
                                     "characters)");
    }
    const std::string_view parsed = line.substr(0, line.find('\0'));
    uint64_t value = 0;
    Timestamp ts = 0;
    switch (ParseEventSpan(parsed.data(), parsed.data() + parsed.size(),
                           timestamped, last_ts, &value, &ts)) {
      case LineParse::kBlank:
        continue;
      case LineParse::kOk:
        break;
      case LineParse::kNonMonotone:
        return Status::InvalidArgument(where +
                                       ": timestamps must be non-decreasing");
      default:
        return Status::InvalidArgument(
            where + ": malformed event line (expected " +
            (timestamped ? "\"<timestamp> <value>\")" : "\"<value>\")"));
    }
    if (!timestamped) ts = static_cast<Timestamp>(index);
    last_ts = ts;
    if (++index <= skip) {
      if (index == skip && timestamped && ts != resume->last_ts) {
        return Status::InvalidArgument(
            where +
            ": replayed input does not match the checkpoint (timestamp "
            "diverges at the resume point)");
      }
      continue;
    }
    events.push_back(Item{value, index - 1, ts});
  }
  if (index < skip) {
    return Status::InvalidArgument(
        source_name + ": replayed input ends before the checkpoint's " +
        std::to_string(skip) + " ingested events");
  }
  return events;
}

/// `text` in an anonymous temporary file, rewound; the caller closes it.
inline std::FILE* TempFileWith(std::string_view text) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return nullptr;
  if (std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    std::fclose(f);
    return nullptr;
  }
  std::rewind(f);
  return f;
}

}  // namespace swsample

#endif  // SWSAMPLE_TESTS_TEXT_INGEST_H_
