// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The forward occurrence-count payload of the frequency-moment and entropy
// estimators (Corollaries 5.2/5.4), and the value-indexed batch counter
// that settles it for timestamp-window units.
//
// A count payload is an equality payload: an arrival changes it iff the
// arrival's value equals the sampled value. So over a batch, a candidate
// that was live before the batch gains the batch's occurrences of its
// value, and a candidate adopted at batch offset j holds the occurrences of
// its value at or after j. ForwardCounts computes both for every candidate
// of every unit in ONE backward pass over the batch: the candidate values
// (r units x O(log n) each) sit in a small open-addressing table behind a
// bit filter, so an arrival whose value no candidate carries costs one
// filter test, and the per-arrival work no longer scales with r log n.

#ifndef SWSAMPLE_APPS_FORWARD_COUNTS_H_
#define SWSAMPLE_APPS_FORWARD_COUNTS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/item.h"
#include "util/macros.h"
#include "util/serial.h"

namespace swsample {

/// The forward occurrence-count payload shared by the frequency-moment and
/// entropy estimators: occurrences of the sampled value at/after the
/// sampled position.
struct CountPayload {
  uint64_t value = 0;
  uint64_t count = 0;
};
struct CountOnSampled {
  CountPayload operator()(const Item& item) const {
    return CountPayload{item.value, 1};
  }
};
struct CountOnArrival {
  void operator()(CountPayload& p, const Item& item) const {
    if (item.value == p.value) ++p.count;
  }
};

/// Wire codec for CountPayload (the payload units serialize payloads
/// through these unqualified overloads; estimators with custom payloads
/// provide their own, e.g. apps/triangles.h).
inline void SavePayload(const CountPayload& p, BinaryWriter* w) {
  w->PutU64(p.value);
  w->PutU64(p.count);
}
inline bool LoadPayload(BinaryReader* r, CountPayload* p) {
  return r->GetU64(&p->value) && r->GetU64(&p->count) && p->count >= 1;
}
/// Checkpoint consistency: a loaded payload must belong to the item it is
/// attached to. Counts are keyed on payload.value, so a forged value would
/// silently corrupt every later count.
inline bool PayloadMatchesItem(const CountPayload& p, const Item& item) {
  return p.value == item.value;
}

/// One batch's forward occurrence counts for a small set of tracked values.
/// Per batch: Reset(), Track()/Mark() the candidates, Count() the batch,
/// then read Total()/Suffix(). The buffers persist across batches, so the
/// steady state allocates nothing. Batches of at most kScanBatch items
/// (item-wise feeding is a one-item batch) skip the table: each query
/// scans the batch directly, which is cheaper than building it.
class ForwardCounts {
 public:
  /// Forgets the previous batch's values and marks (keeps the memory).
  void Reset() {
    values_.clear();
    marks_.clear();
  }

  /// Requests the number of occurrences of `value` in the batch.
  void Track(uint64_t value) { values_.push_back(value); }

  /// Requests the number of occurrences of `value` (the value of the batch
  /// item at `offset`) at or after `offset`.
  void Mark(uint64_t offset, uint64_t value) {
    Track(value);
    marks_.push_back(MarkEntry{offset, 0});
  }

  static constexpr size_t kScanBatch = 16;

  /// The backward pass: counts the tracked values over `batch`, recording
  /// each marked offset's suffix count as the pass crosses it. Every marked
  /// offset must lie inside the batch, which must outlive the queries.
  void Count(std::span<const Item> batch) {
    batch_ = batch;
    if (batch.size() <= kScanBatch) return;
    Build();
    size_t next = 0;  // marks_ are sorted by descending offset
    for (size_t j = batch.size(); j-- > 0;) {
      const uint64_t value = batch[j].value;
      const uint64_t hash = Hash(value);
      const uint64_t bit = hash >> filter_shift_;
      if (((filter_[bit >> 6] >> (bit & 63)) & 1) == 0) continue;
      const size_t slot = Find(value, hash);
      if (slot == kAbsent) continue;  // filter false positive
      const uint64_t count = slots_[slot].count++;
      if (next < marks_.size() && marks_[next].offset == j) {
        marks_[next++].count = count;
      }
    }
    SWS_DCHECK(next == marks_.size());
  }

  /// Occurrences of a tracked `value` in the counted batch.
  uint64_t Total(uint64_t value) const {
    if (batch_.size() <= kScanBatch) return Occurrences(value, 0);
    const size_t slot = Find(value, Hash(value));
    SWS_DCHECK(slot != kAbsent);
    return slots_[slot].count - 1;
  }

  /// Occurrences of the marked offset's value at or after it.
  uint64_t Suffix(uint64_t offset) const {
    if (batch_.size() <= kScanBatch) {
      SWS_DCHECK(offset < batch_.size());
      return Occurrences(batch_[offset].value, offset);
    }
    const auto it = std::lower_bound(
        marks_.begin(), marks_.end(), offset,
        [](const MarkEntry& m, uint64_t o) { return m.offset > o; });
    SWS_DCHECK(it != marks_.end() && it->offset == offset);
    return it->count;
  }

  /// Heap bytes kept between batches.
  uint64_t RetainedBytes() const {
    return values_.capacity() * sizeof(uint64_t) +
           marks_.capacity() * sizeof(MarkEntry) +
           slots_.capacity() * sizeof(Slot) +
           filter_.capacity() * sizeof(uint64_t);
  }

 private:
  // Slot counts are biased by one, so a zero count marks an empty slot and
  // no value has to be reserved as a sentinel.
  struct Slot {
    uint64_t value;
    uint64_t count;
  };
  struct MarkEntry {
    uint64_t offset;
    uint64_t count;
  };

  /// Direct scan: occurrences of `value` in batch_[from, end).
  uint64_t Occurrences(uint64_t value, uint64_t from) const {
    uint64_t count = 0;
    for (uint64_t j = from; j < batch_.size(); ++j) {
      count += batch_[j].value == value;
    }
    return count;
  }

  static uint64_t Hash(uint64_t value) {
    return value * 0x9E3779B97F4A7C15ull;
  }

  /// Sizes and fills the table and filter for this batch's values, and
  /// orders the marks for the backward pass (several units often adopt
  /// the same recent arrival, so duplicates are dropped).
  void Build() {
    // Table load factor <= 2/3, and 8 filter bits per table slot.
    const uint64_t want =
        std::max<uint64_t>(16, values_.size() + values_.size() / 2);
    const unsigned slot_bits = std::bit_width(want - 1);
    const unsigned filter_bits = std::max(9u, slot_bits + 3);
    slot_mask_ = (uint64_t{1} << slot_bits) - 1;
    filter_shift_ = 64 - filter_bits;
    slot_shift_ = 64 - filter_bits - slot_bits;
    slots_.assign(size_t{1} << slot_bits, Slot{0, 0});
    filter_.assign((size_t{1} << filter_bits) / 64, 0);
    for (uint64_t value : values_) {
      const uint64_t hash = Hash(value);
      if (Find(value, hash) != kAbsent) continue;
      uint64_t i = (hash >> slot_shift_) & slot_mask_;
      while (slots_[i].count != 0) i = (i + 1) & slot_mask_;
      slots_[i] = Slot{value, 1};
      const uint64_t bit = hash >> filter_shift_;
      filter_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    std::sort(marks_.begin(), marks_.end(),
              [](const MarkEntry& a, const MarkEntry& b) {
                return a.offset > b.offset;
              });
    marks_.erase(std::unique(marks_.begin(), marks_.end(),
                             [](const MarkEntry& a, const MarkEntry& b) {
                               return a.offset == b.offset;
                             }),
                 marks_.end());
  }

  static constexpr size_t kAbsent = ~size_t{0};

  /// Linear-probing lookup; kAbsent when `value` is not in the table.
  size_t Find(uint64_t value, uint64_t hash) const {
    size_t i = (hash >> slot_shift_) & slot_mask_;
    while (slots_[i].count != 0) {
      if (slots_[i].value == value) return i;
      i = (i + 1) & slot_mask_;
    }
    return kAbsent;
  }

  std::span<const Item> batch_;   // the counted batch
  std::vector<uint64_t> values_;  // tracked values, duplicates allowed
  std::vector<MarkEntry> marks_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> filter_;
  uint64_t slot_mask_ = 0;
  unsigned filter_shift_ = 0;
  unsigned slot_shift_ = 0;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_FORWARD_COUNTS_H_
