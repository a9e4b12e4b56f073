// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/exp_histogram.h"

#include <cmath>

#include "util/bits.h"
#include "util/macros.h"

namespace swsample {

Result<ExpHistogram> ExpHistogram::Create(Timestamp t0, double eps) {
  if (t0 < 1) {
    return Status::InvalidArgument("ExpHistogram: t0 must be >= 1");
  }
  if (!(eps > 0.0 && eps <= 1.0)) {
    return Status::InvalidArgument("ExpHistogram: eps must be in (0, 1]");
  }
  const uint64_t k = static_cast<uint64_t>(std::ceil(1.0 / eps));
  return ExpHistogram(t0, k / 2 + 2);
}

void ExpHistogram::EvictExpired() {
  // A bucket is dropped once even its NEWEST element expired; the oldest
  // surviving bucket may straddle the window boundary, which is where the
  // eps error comes from.
  while (top_ >= 0 && now_ - classes_[top_].front() >= t0_) {
    classes_[top_].pop_front();
    total_ -= uint64_t{1} << top_;
    --buckets_;
    while (top_ >= 0 && classes_[top_].empty()) --top_;
  }
}

RingDeque<Timestamp>& ExpHistogram::Class(uint32_t c) {
  if (c >= classes_.size()) classes_.resize(c + 1);
  return classes_[c];
}

void ExpHistogram::Merge() {
  // DGIM merge rule: while class c holds more than max_per_size_ buckets,
  // its two oldest merge into one bucket of class c+1 that keeps the newer
  // newest-arrival timestamp and becomes class c+1's newest bucket. Only
  // class 0 receives fresh buckets and a merge only feeds class c+1, so
  // one upward sweep that stops at the first class within the cap
  // restores the cap everywhere (every class is within it beforehand).
  //
  // Merging here, after a run of appends, instead of after each append
  // leaves the same state: class c always merges its oldest pairs in
  // arrival order, and the number of merges is fixed by the final count
  // (it must end at max_per_size_ or one below, with the parity of the
  // bucket count), so class c+1 receives the same buckets in the same
  // order. The caller must keep expiry from interleaving (see AddBatch).
  for (uint32_t c = 0; c < 63 && classes_[c].size() > max_per_size_; ++c) {
    const uint64_t merges = (classes_[c].size() - max_per_size_ + 1) / 2;
    Class(c + 1);  // may reallocate classes_: take references after it
    RingDeque<Timestamp>& from = classes_[c];
    RingDeque<Timestamp>& to = classes_[c + 1];
    for (uint64_t m = 0; m < merges; ++m) {
      from.pop_front();
      to.push_back(from.front());
      from.pop_front();
    }
    buckets_ -= merges;
    if (static_cast<int>(c) + 1 > top_) top_ = static_cast<int>(c) + 1;
  }
}

void ExpHistogram::Add(Timestamp ts) {
  // Out-of-order contract (see StreamSink): count a regressed timestamp as
  // arriving at the current clock so bucket timestamps stay non-decreasing.
  if (ts < now_) ts = now_;
  AdvanceTime(ts);
  Class(0).push_back(ts);
  ++buckets_;
  ++total_;
  if (top_ < 0) top_ = 0;
  Merge();
}

void ExpHistogram::AddBatch(std::span<const Item> items) {
  // Appends a run of at most this many buckets to class 0 before merging,
  // which bounds class 0's ring (its arena memory is retained).
  constexpr uint64_t kRun = 64;
  size_t i = 0;
  while (i < items.size()) {
    // One expiry-free run: the clock moves to the run's first arrival,
    // then arrivals are appended while their (clamped) timestamps keep the
    // oldest bucket active. Per-item Add would evict nothing inside the
    // run either — merges and appends only make the oldest bucket newer —
    // so deferring the merges to the run's end is state-identical.
    AdvanceTime(items[i].timestamp);
    const Timestamp oldest = top_ >= 0 ? classes_[top_].front() : now_;
    RingDeque<Timestamp>& fresh = Class(0);
    const size_t end = std::min<size_t>(items.size(), i + kRun);
    const size_t start = i;
    do {
      const Timestamp ts = std::max(now_, items[i].timestamp);
      if (ts - oldest >= t0_) break;
      now_ = ts;
      fresh.push_back(ts);
    } while (++i < end);
    buckets_ += i - start;
    total_ += i - start;
    if (top_ < 0) top_ = 0;
    Merge();
  }
}

void ExpHistogram::AdvanceTime(Timestamp now) {
  if (now < now_) return;  // clock regressions are no-ops (see StreamSink)
  now_ = now;
  EvictExpired();
}

uint64_t ExpHistogram::RetainedBytes() const {
  uint64_t bytes = classes_.capacity() * sizeof(RingDeque<Timestamp>);
  for (const RingDeque<Timestamp>& ring : classes_) {
    bytes += ring.ReservedBytes();
  }
  return bytes;
}

void ExpHistogram::Save(BinaryWriter* w) const {
  w->PutI64(now_);
  w->PutU64(buckets_);
  for (int c = top_; c >= 0; --c) {
    const RingDeque<Timestamp>& ring = classes_[c];
    for (uint64_t i = 0; i < ring.size(); ++i) {
      w->PutI64(ring[i]);
      w->PutU64(uint64_t{1} << c);
    }
  }
}

bool ExpHistogram::Load(BinaryReader* r) {
  uint64_t size = 0;
  if (!r->GetI64(&now_) || now_ < 0 || !r->GetU64(&size) ||
      size > r->remaining() / 16 + 1) {
    return false;
  }
  for (RingDeque<Timestamp>& ring : classes_) ring.clear();
  top_ = -1;
  total_ = 0;
  buckets_ = 0;
  Timestamp prev_newest = 0;
  uint64_t prev_count = 0;
  uint64_t run = 0;  // buckets of the current class so far
  for (uint64_t i = 0; i < size; ++i) {
    Timestamp newest = 0;
    uint64_t count = 0;
    // Counts are powers of two, non-increasing front (oldest) to back;
    // newest-arrival timestamps are non-decreasing, non-negative (so the
    // expiry subtraction cannot overflow) and not expired.
    if (!r->GetI64(&newest) || !r->GetU64(&count) || count < 1 ||
        (count & (count - 1)) != 0 || newest < 0 || newest > now_ ||
        now_ - newest >= t0_ ||
        (i > 0 && (count > prev_count || newest < prev_newest))) {
      return false;
    }
    // A class never holds more than max_per_size_ buckets after Add, and
    // Merge() relies on it.
    const uint32_t c = FloorLog2(count);
    if (count == prev_count && ++run > max_per_size_) return false;
    if (count != prev_count) run = 1;
    Class(c).push_back(newest);
    ++buckets_;
    if (static_cast<int>(c) > top_) top_ = static_cast<int>(c);
    total_ += count;
    prev_newest = newest;
    prev_count = count;
  }
  return true;
}

uint64_t ExpHistogram::Estimate() {
  EvictExpired();
  if (top_ < 0) return 0;
  // Count the straddling oldest bucket at half weight.
  return total_ - (uint64_t{1} << top_) / 2;
}

}  // namespace swsample
