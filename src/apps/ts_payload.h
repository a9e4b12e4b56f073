// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Payload-carrying single-sample unit for TIMESTAMP windows — the
// timestamp half of the Theorem 5.1 bridge (generalizing the forward-count
// tracker Corollaries 5.2/5.4 need to arbitrary payloads, which is what
// lets triangle watching run on timestamp windows too).
//
// The candidate set of a TsSingleSampler is the O(log n) bucket R-samples
// plus the straddler's, and a new candidate can only be the arriving
// element (fresh single-element bucket); merges and re-straddling select
// among EXISTING candidates. Payloads therefore survive restructuring by
// carrying one payload per candidate: when a candidate enters (it is the
// arriving element) it gets a fresh payload, and every later arrival is
// reported to it — whichever candidate Sample() returns, its payload has
// seen exactly the arrivals after its position.
//
// Two ingestion paths, chosen by payload type:
//
//  * Forward counts (CountPayload: ams-fk, ccm-entropy). The sampler takes
//    the whole batch through its own ObserveBatch (horizon scan, ExtendRun,
//    timestamp clamping), and the counts are settled once at the batch end
//    from a ForwardCounts backward pass (apps/forward_counts.h): a
//    candidate that survives from before the batch adds the batch's
//    occurrences of its value, one adopted at batch offset j takes the
//    occurrences at or after j. ObserveCounts runs r units over one shared
//    pass; item-wise Observe is a one-item batch, so this is the unit's
//    only ingestion path.
//  * Any other payload (buriol-triangles' watch state). Every arrival is
//    reported to every live payload via `OnArrival(payload, item)`, and
//    candidates adopted mid-batch replay the arrivals after their position
//    from the batch span, which reproduces the item-wise state exactly.
//
// Payloads live in a vector sorted by candidate index (the straddler's
// R-sample, then the buckets' in order), so reconciling it with the
// sampler's candidate set is one merge-walk; it ping-pongs with a scratch
// twin whose memory persists, so the steady state allocates nothing.

#ifndef SWSAMPLE_APPS_TS_PAYLOAD_H_
#define SWSAMPLE_APPS_TS_PAYLOAD_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/forward_counts.h"
#include "core/ts_single.h"
#include "stream/item.h"
#include "util/macros.h"
#include "util/serial.h"

namespace swsample {

/// One independent single-sample unit with payload tracking over a
/// timestamp window of length t0.
template <typename Payload, typename OnSampledFn, typename OnArrivalFn>
class TsPayloadUnit {
 public:
  /// True for the equality count payload, which takes the value-indexed
  /// batched path (see the file comment).
  static constexpr bool kForwardCounts =
      std::is_same_v<Payload, CountPayload>;

  /// A sampled position with its forward-accumulated payload.
  struct Sampled {
    Item item;
    Payload payload;
  };

  /// Builds a unit over window length t0 (>= 1; validated upstream).
  TsPayloadUnit(Timestamp t0, uint64_t seed, OnSampledFn on_sampled,
                OnArrivalFn on_arrival)
      : sampler_(std::move(TsSingleSampler::Create(t0, seed)).ValueOrDie()),
        on_sampled_(std::move(on_sampled)),
        on_arrival_(std::move(on_arrival)) {}

  /// Feeds one arrival.
  void Observe(const Item& item) {
    if constexpr (kForwardCounts) {
      ObserveBatch(std::span<const Item>(&item, 1));
    } else {
      // Forward payloads first: the arrival is "after" every candidate.
      for (Entry& entry : payloads_) on_arrival_(entry.payload, item);
      sampler_.Observe(item);
      Replay(std::span<const Item>(&item, 1));
    }
  }

  /// Feeds a contiguous run of arrivals; state identical to item-wise
  /// feeding (up to the sampler's batch-scoped merge coins).
  void ObserveBatch(std::span<const Item> items) {
    if constexpr (kForwardCounts) {
      ObserveCounts(std::span<TsPayloadUnit>(this, 1), items, &counts_);
    } else {
      if (items.empty()) return;
      CoinSource coins(sampler_.rng());  // batch-scoped merge-coin cache
      for (const Item& item : items) {
        for (Entry& entry : payloads_) on_arrival_(entry.payload, item);
        sampler_.ObserveWithCoins(item, coins);
      }
      Replay(items);
    }
  }

  /// The forward-count ingestion path: feeds `items` to every unit's
  /// sampler, then settles all their counts from one backward pass over
  /// the batch. `counts` is caller-owned scratch (PayloadSubstrate shares
  /// one across its r units).
  static void ObserveCounts(std::span<TsPayloadUnit> units,
                            std::span<const Item> items,
                            ForwardCounts* counts)
    requires kForwardCounts
  {
    if (items.empty()) return;
    const StreamIndex first = items.front().index;
    counts->Reset();
    for (TsPayloadUnit& unit : units) {
      unit.sampler_.ObserveBatch(items);
      unit.ForEachCandidate([&](const Item& candidate) {
        if (candidate.index < first) {
          counts->Track(candidate.value);
        } else {
          counts->Mark(candidate.index - first, candidate.value);
        }
      });
    }
    counts->Count(items);
    for (TsPayloadUnit& unit : units) {
      unit.Reconcile([&](const Item& candidate, const CountPayload* old) {
        if (old != nullptr) {
          return CountPayload{candidate.value,
                              old->count + counts->Total(candidate.value)};
        }
        return CountPayload{candidate.value,
                            counts->Suffix(candidate.index - first)};
      });
    }
  }

  /// Advances the clock.
  void AdvanceTime(Timestamp now) {
    sampler_.AdvanceTime(now);
    // Expiry only drops candidates; every survivor keeps its payload.
    Reconcile([](const Item&, const Payload* old) {
      SWS_DCHECK(old != nullptr);
      return *old;
    });
  }

  /// A sampled (item, payload) of the active window; nullopt if empty.
  /// Fresh sampling randomness per call; the payload is exact.
  std::optional<Sampled> Sample() {
    auto item = sampler_.SampleOne();
    if (!item) return std::nullopt;
    const auto it = std::lower_bound(
        payloads_.begin(), payloads_.end(), item->index,
        [](const Entry& entry, StreamIndex index) {
          return entry.index < index;
        });
    SWS_CHECK(it != payloads_.end() && it->index == item->index);
    return Sampled{*item, it->payload};
  }

  /// Live memory words incl. the payloads (O(log n) entries).
  uint64_t MemoryWords() const {
    constexpr uint64_t kPayloadWords = (sizeof(Payload) + 7) / 8;
    return sampler_.MemoryWords() + payloads_.size() * (1 + kPayloadWords);
  }

  /// Heap bytes retained beyond the object footprint: the embedded
  /// sampler's arena, both payload vectors, and the forward-count scratch
  /// of a unit fed on its own (empty when PayloadSubstrate drives it).
  uint64_t RetainedBytes() const {
    return sampler_.zeta().RetainedBytes() +
           (payloads_.capacity() + scratch_.capacity()) * sizeof(Entry) +
           counts_.RetainedBytes();
  }

  /// Checkpointing: the embedded Section 3 sampler plus one (index,
  /// payload) record per candidate, sorted by index so equal states
  /// produce equal bytes. Load requires the records to be exactly the
  /// sampler's candidate set — the invariant Sample() checks — and each
  /// payload to belong to its candidate item (PayloadMatchesItem).
  void Save(BinaryWriter* w) const {
    sampler_.SaveState(w);
    w->PutU64(payloads_.size());
    for (const Entry& entry : payloads_) {
      w->PutU64(entry.index);
      SavePayload(entry.payload, w);
    }
  }

  bool Load(BinaryReader* r) {
    uint64_t size = 0;
    if (!sampler_.LoadState(r) || !r->GetU64(&size) ||
        size != sampler_.StructureCount()) {
      return false;
    }
    payloads_.clear();
    bool ok = true;
    ForEachCandidate([&](const Item& candidate) {
      Entry entry;
      ok = ok && r->GetU64(&entry.index) && entry.index == candidate.index &&
           LoadPayload(r, &entry.payload) &&
           PayloadMatchesItem(entry.payload, candidate);
      if (ok) payloads_.push_back(entry);
    });
    return ok;
  }

 private:
  struct Entry {
    StreamIndex index;
    Payload payload;
  };

  /// Visits the sampler's candidates in ascending index order: the
  /// straddler's R-sample precedes the covering decomposition's, whose
  /// buckets partition the covered range left to right.
  template <typename Fn>
  void ForEachCandidate(Fn&& fn) const {
    if (sampler_.straddler()) fn(sampler_.straddler()->r);
    for (uint64_t i = 0; i < sampler_.zeta().size(); ++i) {
      fn(sampler_.zeta().bucket(i).r);
    }
  }

  /// Rebuilds the payload vector for the sampler's current candidate set:
  /// `make(candidate, old)` returns a candidate's payload given its
  /// payload from the last sync (nullptr for a candidate adopted since).
  /// Both sides are sorted by index, so the old payloads are found by one
  /// merge-walk.
  template <typename MakeFn>
  void Reconcile(MakeFn&& make) {
    scratch_.clear();
    size_t old = 0;
    ForEachCandidate([&](const Item& candidate) {
      while (old < payloads_.size() && payloads_[old].index < candidate.index) {
        ++old;
      }
      const bool kept =
          old < payloads_.size() && payloads_[old].index == candidate.index;
      scratch_.push_back(Entry{
          candidate.index,
          make(candidate, kept ? &payloads_[old].payload : nullptr)});
    });
    std::swap(payloads_, scratch_);
  }

  /// Generic-payload sync after `batch` (the arrivals since the last
  /// sync): new candidates replay the batch suffix after their position to
  /// catch up on OnArrival updates.
  void Replay(std::span<const Item> batch) {
    Reconcile([&](const Item& candidate, const Payload* old) {
      if (old != nullptr) return *old;
      SWS_DCHECK(!batch.empty() && candidate.index >= batch.front().index);
      const uint64_t offset = candidate.index - batch.front().index;
      SWS_DCHECK(offset < batch.size());
      Payload payload = on_sampled_(batch[offset]);
      for (uint64_t j = offset + 1; j < batch.size(); ++j) {
        on_arrival_(payload, batch[j]);
      }
      return payload;
    });
  }

  TsSingleSampler sampler_;
  OnSampledFn on_sampled_;
  OnArrivalFn on_arrival_;
  std::vector<Entry> payloads_;  // one per candidate, sorted by index
  std::vector<Entry> scratch_;   // Reconcile ping-pong twin
  ForwardCounts counts_;         // ObserveBatch scratch when fed alone
};

/// The timestamp-window forward-count tracker (white-box tested).
using TsForwardCountUnit =
    TsPayloadUnit<CountPayload, CountOnSampled, CountOnArrival>;

}  // namespace swsample

#endif  // SWSAMPLE_APPS_TS_PAYLOAD_H_
