// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Common interface of all sliding-window estimators — the Theorem 5.1
/// products. The theorem is a black-box translation: a sampling-based
/// streaming estimator becomes a sliding-window estimator by swapping its
/// sampling substrate for a window sampler. A WindowEstimator is one such
/// translated algorithm: it ingests the stream like a sampler (it IS a
/// StreamSink, so the batched StreamDriver pumps it unchanged) and answers
/// queries with a typed EstimateReport instead of a raw sample set.
///
/// Estimators are constructed by name through the sink table
/// (apps/sink_spec.h): a spec `name@substrate` pairs each estimator with a
/// sampling substrate named by its sampler name.
///
/// Ownership: estimators come out of `CreateSink` inside a caller-owned
/// Sink; an estimator owns its substrate outright.
///
/// Thread-safety: an estimator is NOT thread-safe — one thread per
/// instance, like every StreamSink. The sharded driver runs one replica
/// per shard and combines the per-shard reports through merge_kind()
/// below.
///
/// Status conventions: construction and merge errors are `Status` values
/// (InvalidArgument for bad configs or incompatible merges), never
/// exceptions; Observe/Estimate never allocate a Status.

#ifndef SWSAMPLE_APPS_ESTIMATOR_H_
#define SWSAMPLE_APPS_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/api.h"
#include "stream/item.h"
#include "util/status.h"

namespace swsample {

/// One point estimate with its provenance.
struct EstimateReport {
  /// The point estimate of the windowed quantity (0 on an empty window).
  double value = 0.0;
  /// What `value` estimates, e.g. "F2", "H-bits", "T3", "q0.50", "count".
  std::string metric;
  /// The window size the estimate was scaled by: exact for sequence and
  /// oracle substrates, the (1 +/- eps) n-hat for timestamp substrates,
  /// 0 when the estimator does not track it.
  double window_size = 0.0;
  /// Live sampling units / sample points behind the estimate.
  uint64_t support = 0;
};

/// How per-shard estimates of one quantity combine into a global estimate
/// when the stream is partitioned across shard replicas. kSum and kEntropy
/// are per-KEY identities: they require shards with DISJOINT key sets
/// (key-hash partitioning) — under round-robin chunking a key's
/// occurrences split across shards and sum-of-shard-F_k underestimates
/// the global moment. kCount and kWeightedMean only need the shards to
/// partition the window's ELEMENTS, which every partition mode provides.
enum class EstimateMergeKind {
  kNone,          ///< not merge-capable (quantiles, triangles)
  kSum,           ///< value adds across key-disjoint shards (F_k)
  kCount,         ///< value adds across any element partition (counts)
  kWeightedMean,  ///< window_size-weighted mean of shard values (means)
  kEntropy,       ///< Shannon grouping rule over key-disjoint shards
};

/// True when `kind` is only exact over key-disjoint shards — harnesses
/// use this to default to key-hash partitioning.
inline bool MergeNeedsKeyDisjointShards(EstimateMergeKind kind) {
  return kind == EstimateMergeKind::kSum ||
         kind == EstimateMergeKind::kEntropy;
}

/// Abstract sliding-window estimator.
///
/// Inherits the full ingestion contract of StreamSink: consecutive indices,
/// non-decreasing timestamps, ObserveBatch distributionally identical to
/// item-wise Observe, AdvanceTime moving the clock across empty steps.
class WindowEstimator : public StreamSink {
 public:
  /// Computes the current estimate over the active window. May consume
  /// fresh randomness (substrates redraw samples per query); the guarantee
  /// is on the per-call estimate distribution.
  virtual EstimateReport Estimate() = 0;

  /// How shard-level Estimate() reports combine (see EstimateMergeKind);
  /// kNone means this estimator cannot be sharded meaningfully.
  virtual EstimateMergeKind merge_kind() const {
    return EstimateMergeKind::kNone;
  }
};

/// Combines per-shard reports per `kind`. The merged window_size and
/// support are the shard sums; the merged value is the sum (kSum), the
/// window_size-weighted mean (kWeightedMean), or the Shannon grouping
/// combination H = sum_s (n_s/n) * (H_s + log2(n/n_s)) over non-empty
/// shards (kEntropy). InvalidArgument on kNone or an empty span.
Result<EstimateReport> MergeEstimates(EstimateMergeKind kind,
                                      std::span<const EstimateReport> shards);

/// Queries every shard replica and merges the reports under the shards'
/// common merge_kind(). Fails when shards is empty, the kinds disagree, or
/// the kind is kNone.
Result<EstimateReport> MergedEstimate(std::span<WindowEstimator* const> shards);

}  // namespace swsample

#endif  // SWSAMPLE_APPS_ESTIMATOR_H_
