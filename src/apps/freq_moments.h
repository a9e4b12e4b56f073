// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Frequency-moment estimation over sliding windows — Corollary 5.2.
//
// The Alon-Matias-Szegedy (STOC'96) estimator: sample a uniform position p
// of the window, let c be the number of occurrences of value(p) at or
// after p within the window; then  X = n * (c^k - (c-1)^k)  is an unbiased
// estimate of F_k = sum_i x_i^k. The paper's point (Theorem 5.1) is that
// replacing AMS's reservoir with a sliding-window sampler transfers the
// algorithm to windows with no loss in the memory guarantee; this class is
// that transfer over any payload-capable substrate (sink name
// "ams-fk"): sequence units, timestamp units with the DGIM n-hat, or the
// exact-window oracle.

#ifndef SWSAMPLE_APPS_FREQ_MOMENTS_H_
#define SWSAMPLE_APPS_FREQ_MOMENTS_H_

#include <cstdint>
#include <memory>

#include "apps/estimator.h"
#include "apps/payload_substrate.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// Streaming F_k estimator over a sliding window ("ams-fk").
class FkEstimator final : public WindowEstimator {
 public:
  using Substrate =
      PayloadSubstrate<CountPayload, CountOnSampled, CountOnArrival>;

  /// Creates an estimator of the `moment`-th frequency moment (moment >= 1)
  /// averaging `params.r` independent AMS units over the substrate family
  /// `params.kind`.
  static Result<std::unique_ptr<FkEstimator>> Create(
      const Substrate::Params& params, uint32_t moment);

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
  const char* name() const override { return "ams-fk"; }
  /// The sampling units, for white-box checks of their per-unit payloads.
  Substrate& substrate() { return substrate_; }
  /// F_k is additive across disjoint shards: every occurrence of a value
  /// lands in one shard under key-hash partitioning, so shard moments sum.
  EstimateMergeKind merge_kind() const override {
    return EstimateMergeKind::kSum;
  }
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override { substrate_.SaveState(w); }
  bool LoadState(BinaryReader* r) override {
    return substrate_.LoadState(r);
  }

 private:
  FkEstimator(Substrate substrate, uint32_t moment)
      : substrate_(std::move(substrate)), moment_(moment) {}

  Substrate substrate_;
  uint32_t moment_;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_FREQ_MOMENTS_H_
