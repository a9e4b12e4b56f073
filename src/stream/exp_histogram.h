// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Exponential histograms -- Datar, Gionis, Indyk, Motwani (SODA'02), the
// paper's reference [31] and the companion substrate for its negative
// result: the EXACT number of active elements in a timestamp window cannot
// be maintained in sublinear space, but a (1 +/- eps) approximation can,
// in O(eps^-1 log^2 n) bits. swsample uses it to run count-consuming
// estimators (AMS frequency moments, entropy) over TIMESTAMP windows,
// where the window size n(t) that the sequence-based estimators take for
// granted is unknowable.
//
// Structure: per arrival a size-1 bucket (timestamp, count) is appended;
// whenever more than ceil(1/eps)/2 + 2 buckets of one size exist, the two
// oldest of that size merge into one of double size. The window count is
// the sum of all non-expired buckets, counting the oldest (straddling)
// bucket at half weight -- relative error at most eps.
//
// Layout: one ring per size class c holding the newest-arrival timestamps
// of the count-2^c buckets, oldest first (counts are implicit in the class).
// The bucket list, oldest first, is the classes from the largest down, so
// the oldest bucket is the front of the largest non-empty class, and the
// DGIM merge of the two oldest buckets of class c is two pops from ring c
// and one push onto ring c+1: O(1) per merge with no shifting, and O(1)
// amortized per Add. Expiry pops only from the largest class's ring.

#ifndef SWSAMPLE_STREAM_EXP_HISTOGRAM_H_
#define SWSAMPLE_STREAM_EXP_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stream/item.h"
#include "util/arena.h"
#include "util/serial.h"
#include "util/status.h"

namespace swsample {

/// (1 +/- eps)-approximate count of arrivals within the last t0 time units.
class ExpHistogram {
 public:
  /// Creates a histogram for window length `t0` >= 1 with relative error
  /// `eps` in (0, 1].
  static Result<ExpHistogram> Create(Timestamp t0, double eps);

  /// Records one arrival at time `ts` (non-decreasing). O(1) amortized.
  void Add(Timestamp ts);

  /// Records the arrivals of `items` at their timestamps; the resulting
  /// state (and Save() bytes) is identical to calling Add per item.
  void AddBatch(std::span<const Item> items);

  /// Advances the clock without arrivals.
  void AdvanceTime(Timestamp now);

  /// (1 +/- eps) estimate of the number of active arrivals. O(1) beyond
  /// the expiry sweep (a running total is maintained across mutations).
  uint64_t Estimate();

  /// Number of buckets held (O(eps^-1 log n)).
  uint64_t BucketCount() const { return buckets_; }

  /// Live memory words (one timestamp + one count per bucket).
  uint64_t MemoryWords() const { return 3 + buckets_ * 2; }

  /// Heap bytes retained beyond the object footprint (the class-ring
  /// vector and each ring's arena reservation).
  uint64_t RetainedBytes() const;

  /// Checkpointing: clock + buckets (t0/eps are configuration and live in
  /// the owning estimator's envelope). The byte format is unchanged from
  /// the earlier single-list layouts: (newest, count) pairs, oldest first.
  /// Load validates bucket monotonicity, power-of-two counts and the
  /// per-class cap that Add maintains; see util/serial.h.
  void Save(BinaryWriter* w) const;
  bool Load(BinaryReader* r);

 private:
  ExpHistogram(Timestamp t0, uint64_t max_per_size)
      : t0_(t0), max_per_size_(max_per_size) {}

  void EvictExpired();
  /// The ring of class c, creating the classes up to c on first use.
  RingDeque<Timestamp>& Class(uint32_t c);
  /// Restores the DGIM cap of max_per_size_ buckets per class.
  void Merge();

  Timestamp t0_;
  uint64_t max_per_size_;  // k/2 + 2 with k = ceil(1/eps)
  Timestamp now_ = 0;
  uint64_t total_ = 0;    // sum of all bucket counts (maintained)
  uint64_t buckets_ = 0;  // number of buckets (maintained)
  int top_ = -1;          // largest non-empty class; -1 when empty
  // classes_[c]: newest-arrival timestamps of the count-2^c buckets,
  // oldest first; non-decreasing along the ring and across classes from
  // the largest down. Rings stay allocated when they empty.
  std::vector<RingDeque<Timestamp>> classes_;
};

}  // namespace swsample

#endif  // SWSAMPLE_STREAM_EXP_HISTOGRAM_H_
