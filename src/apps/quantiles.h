// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Windowed quantile estimation — a direct Theorem 5.1 client.
//
// Quantile estimation from a uniform sample is the textbook sampling-based
// algorithm: the q-quantile of a k-sample WITHOUT replacement of the window
// approximates the window's q-quantile with rank error at most eps*n with
// probability 1-delta once k >= ln(2/delta)/(2 eps^2) (Dvoretzky-Kiefer-
// Wolfowitz). Theorem 5.1 says exactly this transfers to sliding windows by
// swapping in our window samplers — with deterministic O(k) words on
// sequence windows (Theorem 2.2) or O(k log n) on timestamp windows
// (Theorem 4.4), where previous methods paid randomized bounds.
//
// The class is sampler-agnostic: sink name "dkw-quantile" pairs it
// with EVERY registered sampler substrate; construct it directly with ANY
// WindowSampler (preferably without-replacement).

#ifndef SWSAMPLE_APPS_QUANTILES_H_
#define SWSAMPLE_APPS_QUANTILES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/estimator.h"
#include "core/api.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// Streaming quantile estimator over a sliding window ("dkw-quantile").
class QuantileEstimator final : public WindowEstimator {
 public:
  /// Wraps an existing window sampler (takes ownership). The sampler's k
  /// determines the rank-error guarantee (see RequiredSampleSize); `q` in
  /// [0, 1] is the quantile Estimate() reports.
  static Result<std::unique_ptr<QuantileEstimator>> Create(
      std::unique_ptr<WindowSampler> sampler, double q = 0.5);

  /// DKW bound: the k for which the sampled q-quantile has rank error at
  /// most eps*n with probability 1-delta. Requires 0 < eps < 1,
  /// 0 < delta < 1.
  static Result<uint64_t> RequiredSampleSize(double eps, double delta);

  void Observe(const Item& item) override { sampler_->Observe(item); }
  void ObserveBatch(std::span<const Item> items) override {
    sampler_->ObserveBatch(items);  // inherits the sampler's fast path
  }
  void AdvanceTime(Timestamp now) override { sampler_->AdvanceTime(now); }

  /// The configured q-quantile of the active window from one fresh sample
  /// draw; value 0 on an empty window, support = sample size.
  EstimateReport Estimate() override;

  uint64_t MemoryWords() const override { return sampler_->MemoryWords(); }
  uint64_t RetainedBytes() const override {
    return sizeof(*this) + sampler_->RetainedBytes();
  }
  const char* name() const override { return "dkw-quantile"; }
  /// Persists through the wrapped sampler (q is configuration).
  bool persistable() const override { return sampler_->persistable(); }
  void SaveState(BinaryWriter* w) const override { sampler_->SaveState(w); }
  bool LoadState(BinaryReader* r) override { return sampler_->LoadState(r); }

  /// Estimates the q-quantile (by value) of the active window, q in [0, 1].
  /// Returns the sampled order statistic; 0 if the window is empty.
  uint64_t Quantile(double q);

  /// Estimates several quantiles from ONE sample draw (consistent ranks).
  /// `qs` must be non-empty with entries in [0, 1].
  std::vector<uint64_t> Quantiles(const std::vector<double>& qs);

  /// Underlying sampler (memory accounting etc.).
  WindowSampler& sampler() { return *sampler_; }

 private:
  QuantileEstimator(std::unique_ptr<WindowSampler> sampler, double q)
      : sampler_(std::move(sampler)), q_(q) {}

  std::unique_ptr<WindowSampler> sampler_;
  double q_;
};

}  // namespace swsample

#endif  // SWSAMPLE_APPS_QUANTILES_H_
