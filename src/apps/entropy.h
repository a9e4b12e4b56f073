// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Empirical-entropy estimation over sliding windows — Corollary 5.4.
//
// The Chakrabarti-Cormode-McGregor (SODA'07) basic estimator: for a uniform
// window position p with forward occurrence count c in a window of size n,
//
//   Est = c * log2(n/c) - (c-1) * log2(n/(c-1))     (second term 0 at c=1)
//
// telescopes to E[Est] = H = -sum (x_i/n) log2(x_i/n). CCM's full algorithm
// adds a max-frequency split to control variance at tiny entropies; we
// implement the basic unbiased estimator (documented simplification in
// DESIGN.md) — the point reproduced here is Corollary 5.4's claim that the
// sampling substrate transfers to sliding windows with worst-case memory
// preserved, unlike the priority-sampling variant CCM had to use. Registry
// name "ccm-entropy", over any payload-capable substrate.

#ifndef SWSAMPLE_APPS_ENTROPY_H_
#define SWSAMPLE_APPS_ENTROPY_H_

#include <cstdint>
#include <memory>

#include "apps/estimator.h"
#include "apps/payload_substrate.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// Streaming empirical-entropy (base-2) estimator ("ccm-entropy").
class EntropyEstimator final : public WindowEstimator {
 public:
  using Substrate =
      PayloadSubstrate<CountPayload, CountOnSampled, CountOnArrival>;

  /// Creates an estimator averaging `params.r` independent units over the
  /// substrate family `params.kind`.
  static Result<std::unique_ptr<EntropyEstimator>> Create(
      const Substrate::Params& params);

  void Observe(const Item& item) override { substrate_.Observe(item); }
  void ObserveBatch(std::span<const Item> items) override {
    substrate_.ObserveBatch(items);
  }
  void AdvanceTime(Timestamp now) override { substrate_.AdvanceTime(now); }
  EstimateReport Estimate() override;
  uint64_t MemoryWords() const override { return substrate_.MemoryWords(); }
  uint64_t RetainedBytes() const override {
    return sizeof(*this) + substrate_.RetainedBytes();
  }
  const char* name() const override { return "ccm-entropy"; }
  /// The sampling units, for white-box checks of their per-unit payloads.
  Substrate& substrate() { return substrate_; }
  /// Shard entropies combine by the Shannon grouping rule when shards
  /// hold disjoint key sets (key-hash partitioning).
  EstimateMergeKind merge_kind() const override {
    return EstimateMergeKind::kEntropy;
  }
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override { substrate_.SaveState(w); }
  bool LoadState(BinaryReader* r) override {
    return substrate_.LoadState(r);
  }

 private:
  explicit EntropyEstimator(Substrate substrate)
      : substrate_(std::move(substrate)) {}

  Substrate substrate_;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_ENTROPY_H_
