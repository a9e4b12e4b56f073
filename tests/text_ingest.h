// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Test helpers for text ingestion: a sink that records every delivery,
// the single-reader reference parse (EventReader over a buffer), and text
// in an anonymous temporary file for the FILE* drive entry points.

#ifndef SWSAMPLE_TESTS_TEXT_INGEST_H_
#define SWSAMPLE_TESTS_TEXT_INGEST_H_

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

/// The single-reader path: every event EventReader yields from `text`,
/// or the status it stopped with.
inline Result<std::vector<Item>> ReadEvents(
    std::string_view text, const std::string& source_name, bool timestamped,
    const CheckpointManifest* resume = nullptr) {
  EventReader reader(text, source_name, timestamped, resume);
  std::vector<Item> events;
  std::vector<Item> block(4096);
  while (const size_t got = reader.Read(block)) {
    events.insert(events.end(), block.begin(), block.begin() + got);
  }
  if (!reader.status().ok()) return reader.status();
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
