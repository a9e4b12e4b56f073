// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Payload-carrying sliding-window sampling unit -- the Theorem 5.1 bridge
// used by the application estimators (Corollaries 5.2-5.4).
//
// AMS-style estimators need more than the sampled element: they need state
// accumulated over the arrivals AFTER the sampled position (a forward
// occurrence count for frequency moments/entropy, incidence flags for
// triangle counting). This class runs the Section 2.1 equivalent-width
// bucket-pair scheme with one payload-carrying reservoir slot per bucket:
//
//  * when a slot (re)selects an arrival, `OnSampled(item)` builds a fresh
//    payload;
//  * every subsequent arrival is reported to the payloads of both live
//    slots via `OnArrival(payload, item)`.
//
// The forward state stays valid across the window because in the
// sequence-based model every element arriving after an active position is
// itself active; and it survives bucket boundaries because the previous
// bucket's final slot keeps receiving arrivals until it expires.

#ifndef SWSAMPLE_APPS_PAYLOAD_WINDOW_H_
#define SWSAMPLE_APPS_PAYLOAD_WINDOW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "stream/item.h"
#include "stream/item_serial.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/serial.h"

namespace swsample {

/// One independent single-sample unit with payload tracking over a
/// fixed-size window of n arrivals.
template <typename Payload, typename OnSampledFn, typename OnArrivalFn>
class PayloadWindowUnit {
 public:
  /// A sampled position with its forward-accumulated payload.
  struct Sampled {
    Item item;
    Payload payload;
  };

  PayloadWindowUnit(uint64_t n, OnSampledFn on_sampled,
                    OnArrivalFn on_arrival)
      : n_(n),
        on_sampled_(std::move(on_sampled)),
        on_arrival_(std::move(on_arrival)) {
    SWS_CHECK(n >= 1);
  }

  /// Feeds one arrival (consecutive indices from 0).
  void Observe(const Item& item, Rng& rng) {
    SWS_DCHECK(item.index == count_);
    ++count_;
    if (cur_count_ == n_) {
      // Bucket completed on the previous arrival: its slot becomes the
      // "active bucket" sample, payload intact and still accumulating.
      prev_ = cur_;
      cur_.reset();
      cur_count_ = 0;
    }
    ++cur_count_;
    if (rng.BernoulliRational(1, cur_count_)) {
      cur_ = Sampled{item, on_sampled_(item)};
    } else if (cur_) {
      on_arrival_(cur_->payload, item);
    }
    if (prev_) {
      on_arrival_(prev_->payload, item);
    }
  }

  /// Feeds a contiguous run of arrivals; distributionally identical to
  /// item-by-item Observe. Payload updates are inherently per item (every
  /// arrival must reach the live payloads), but the per-item Bernoulli is
  /// replaced by a skip-ahead draw of the next replacement position: from
  /// bucket fill m the next selection lands j >= 1 arrivals ahead with
  /// P(j > s) = m / (m + s), so one Uniform01 per replacement (plus one
  /// per bucket/batch boundary) replaces one draw per item.
  void ObserveBatch(std::span<const Item> items, Rng& rng) {
    size_t i = 0;
    while (i < items.size()) {
      if (cur_count_ == n_) {
        prev_ = cur_;
        cur_.reset();
        cur_count_ = 0;
      }
      if (cur_count_ == 0) {
        // The first arrival of a bucket is selected with probability 1.
        Select(items[i]);
        ++i;
        continue;
      }
      const uint64_t m = cur_count_;
      const uint64_t jump = SkipToNextSelection(m, rng);
      // Arrivals before the selection point update payloads only; the run
      // is capped by the bucket boundary and the end of the batch.
      const uint64_t run = std::min(
          {jump - 1, n_ - m, static_cast<uint64_t>(items.size() - i)});
      for (uint64_t s = 0; s < run; ++s) {
        const Item& item = items[i + s];
        SWS_DCHECK(item.index == count_);
        ++count_;
        if (cur_) on_arrival_(cur_->payload, item);
        if (prev_) on_arrival_(prev_->payload, item);
      }
      cur_count_ += run;
      i += run;
      if (run == jump - 1 && jump <= n_ - m && i < items.size()) {
        Select(items[i]);
        ++i;
      }
      // Otherwise the skip was cut short by the bucket boundary or the end
      // of the batch. Discarding the remainder and redrawing is exact: the
      // consumed arrivals were decided non-selections, and the trials past
      // a boundary are independent of the discarded draw.
    }
  }

  /// The unit's current window sample (Section 2.1 combination rule);
  /// nullopt iff nothing observed.
  const std::optional<Sampled>& Current() const {
    if (count_ == 0) return cur_;  // empty optional
    if (cur_count_ == n_ || count_ < n_) return cur_;
    SWS_DCHECK(prev_.has_value());
    const uint64_t window_start = count_ - n_;
    return prev_->item.index >= window_start ? prev_ : cur_;
  }

  /// Number of active elements (window fill level).
  uint64_t WindowSize() const { return count_ < n_ ? count_ : n_; }

  /// Total arrivals observed.
  uint64_t count() const { return count_; }

  /// Live memory words: up to two payload-carrying slots plus counters.
  uint64_t MemoryWords() const {
    constexpr uint64_t kPayloadWords = (sizeof(Payload) + 7) / 8;
    const uint64_t slots = (cur_ ? 1 : 0) + (prev_ ? 1 : 0);
    return slots * (kWordsPerItem + kPayloadWords) + 3;
  }

  /// Checkpointing: counters plus both payload-carrying slots. Payloads
  /// serialize through the SavePayload/LoadPayload overloads of the
  /// instantiating estimator (apps/forward_counts.h, apps/triangles.h),
  /// and Load rejects a payload that PayloadMatchesItem says does not
  /// belong to its slot's item.
  void Save(BinaryWriter* w) const {
    w->PutU64(count_);
    w->PutU64(cur_count_);
    SaveSlot(cur_, w);
    SaveSlot(prev_, w);
  }

  bool Load(BinaryReader* r) {
    if (!r->GetU64(&count_) || !r->GetU64(&cur_count_) ||
        cur_count_ > count_ || cur_count_ > n_ ||
        cur_count_ != (count_ == 0 ? 0 : (count_ - 1) % n_ + 1)) {
      return false;
    }
    // A current slot exists iff the bucket is non-empty (its first arrival
    // selects with probability 1); a previous one iff a bucket rolled.
    return LoadSlot(r, &cur_, /*required=*/cur_count_ > 0) &&
           LoadSlot(r, &prev_, /*required=*/count_ > n_);
  }

 private:
  static void SaveSlot(const std::optional<Sampled>& slot, BinaryWriter* w) {
    w->PutBool(slot.has_value());
    if (slot) {
      SaveItem(slot->item, w);
      SavePayload(slot->payload, w);
    }
  }

  static bool LoadSlot(BinaryReader* r, std::optional<Sampled>* slot,
                       bool required) {
    bool present = false;
    if (!r->GetBool(&present) || present != required) return false;
    slot->reset();
    if (!present) return true;
    Sampled s;
    if (!LoadItem(r, &s.item) || !LoadPayload(r, &s.payload) ||
        !PayloadMatchesItem(s.payload, s.item)) {
      return false;
    }
    *slot = std::move(s);
    return true;
  }

  /// Makes `item` the newest bucket's sample with a fresh payload; the
  /// previous bucket's payload still sees the arrival.
  void Select(const Item& item) {
    SWS_DCHECK(item.index == count_);
    ++count_;
    ++cur_count_;
    cur_ = Sampled{item, on_sampled_(item)};
    if (prev_) on_arrival_(prev_->payload, item);
  }

  /// Draws the 1-based offset of the next reservoir replacement after
  /// bucket fill m, distributed as the first success of independent
  /// Bernoulli(1/(m+1)), 1/(m+2), ... trials: P(j <= s) = s / (m + s).
  static uint64_t SkipToNextSelection(uint64_t m, Rng& rng) {
    const double u = rng.Uniform01();
    if (u <= 0.0) return 1;
    const double x =
        u * static_cast<double>(m) / (1.0 - u);  // inverse CDF
    if (x >= 1e18) return uint64_t{1} << 62;
    const uint64_t j = static_cast<uint64_t>(std::ceil(x));
    return j < 1 ? 1 : j;
  }

  uint64_t n_;
  OnSampledFn on_sampled_;
  OnArrivalFn on_arrival_;
  uint64_t count_ = 0;
  uint64_t cur_count_ = 0;  // arrivals in the newest bucket
  std::optional<Sampled> cur_;
  std::optional<Sampled> prev_;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_PAYLOAD_WINDOW_H_
