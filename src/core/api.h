// Copyright (c) swsample authors. Licensed under the MIT license.

/// \file
/// Common interface of all sliding-window samplers (ours and the baselines)
/// and of anything else a stream can be pumped into.
///
/// The contract mirrors the paper's model:
///  * Items arrive with consecutive indices 0,1,2,... and non-decreasing
///    timestamps (bursts share a timestamp).
///  * `AdvanceTime` moves the clock without arrivals: in the timestamp model
///    elements expire by clock alone, so a sampler must stay correct across
///    empty steps. Sequence-based samplers ignore it.
///  * Out-of-order contract: real clocks regress (NTP steps, cross-shard
///    skew), so timestamp-based sinks must tolerate regressions instead of
///    aborting. The library-wide rule is CLAMPING: the sink's clock never
///    moves backwards — `AdvanceTime` to an earlier time is a no-op, and an
///    `Observe`/`ObserveBatch` arrival whose timestamp is older than the
///    clock is treated (and stored) as arriving at the current clock. A
///    disordered batch is therefore equivalent to its running-maximum
///    normalization (see `ClampTimestamps` in stream/item.h); batches that
///    already satisfy the monotone contract are processed bit-identically
///    to before and pay only a pre-scan. Exact oracles (`ExactWindow`)
///    clamp the same way, so sampler-vs-oracle comparisons stay valid under
///    skewed workloads.
///  * `Sample()` may be called at ANY moment and must return a uniform
///    random sample of the currently active elements (k items; fewer iff
///    fewer than k elements are active for without-replacement samplers, or
///    during startup). Each call may consume fresh randomness; the
///    guarantee is on the per-call marginal distribution.
///  * `MemoryWords()` reports live state under the paper's Section 1.4 word
///    model (one word per stored value, index, or timestamp). This is the
///    quantity the memory experiments (E1-E3) track; the paper's entire
///    point is that for our algorithms it is deterministically bounded.
///
/// Ownership: sinks are constructed through factory functions returning
/// `Result<std::unique_ptr<...>>` and owned by the caller; the library
/// never retains references to a sink behind the caller's back.
///
/// Thread-safety: a sink is NOT thread-safe. One thread must own each
/// instance for the whole ingest/query sequence; the sharded driver
/// (stream/sharded_driver.h) gets parallelism from one replica per worker
/// plus the Snapshot()/MergeFrom() combination surface below, never from
/// sharing an instance.
///
/// Status conventions: configuration and API-misuse errors surface as
/// `Status`/`Result<T>` from factories and from the optional surfaces
/// (e.g. `Snapshot()`), never as exceptions. Hot-path methods
/// (Observe/ObserveBatch/Sample) do not allocate Status values; internal
/// invariant violations are SWS_DCHECK failures.

#ifndef SWSAMPLE_CORE_API_H_
#define SWSAMPLE_CORE_API_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stream/item.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/status.h"

namespace swsample {

/// Anything a stream can be pumped into: the common surface of samplers
/// (core/baseline) and estimators (apps). The StreamDriver, benches and the
/// CLI feed items through this interface only, so the same batched pump
/// serves both layers.
class StreamSink {
 public:
  virtual ~StreamSink() = default;

  /// Feeds one arrival. Indices must be consecutive from 0; timestamps
  /// non-decreasing. Implicitly advances the clock to item.timestamp.
  /// Timestamp-based sinks clamp a regressed timestamp to the current
  /// clock (out-of-order contract above).
  virtual void Observe(const Item& item) = 0;

  /// Feeds a contiguous run of arrivals (same ordering contract as
  /// Observe). The result is distributionally identical to observing the
  /// items one by one — implementations override this only to amortize RNG
  /// draws and expiry checks across the batch, never to change the sampling
  /// distribution. The default forwards item by item.
  virtual void ObserveBatch(std::span<const Item> items) {
    for (const Item& item : items) Observe(item);
  }

  /// Advances the clock to `now` without arrivals. No-op for sequence-based
  /// sinks, and a no-op when `now` is earlier than the current clock (the
  /// clock never moves backwards; out-of-order contract above).
  virtual void AdvanceTime(Timestamp now) = 0;

  /// Live memory in paper words (values + indices + timestamps stored).
  virtual uint64_t MemoryWords() const = 0;

  /// Approximate bytes of memory this sink actually RETAINS: object
  /// footprint plus heap/arena capacity (arena chunk bytes, hash-table
  /// slots, vector capacity), as opposed to MemoryWords()'s logical
  /// word-model count. MemoryWords() stays the paper-model quantity the
  /// memory experiments track; RetainedBytes() is what a budget enforcer
  /// (the keyed multi-tenant engine) charges against. The default scales
  /// the word count; sinks with growable storage override it to report
  /// real capacity.
  virtual uint64_t RetainedBytes() const { return MemoryWords() * 8; }

  /// Human-readable algorithm name for harness output; for registered
  /// sinks this equals the sink-table name.
  virtual const char* name() const = 0;

  /// True when this sink implements the SaveState/LoadState pair below.
  /// Every sampler and estimator CreateSink builds is persistable;
  /// the default is false so ad-hoc user sinks need not opt in.
  virtual bool persistable() const { return false; }

  /// Appends the sink's full MUTABLE state — counters, clocks, RNG
  /// streams, held samples — to `w`. Configuration (window sizes, k,
  /// substrate choice) is NOT written here: the checkpoint envelope
  /// (SaveSink, apps/sink_spec.h) carries the sink spec that
  /// reconstructs the object shell, and LoadState then refills it. The
  /// paper's O(k log n)-word state bound is what makes this cheap.
  virtual void SaveState(BinaryWriter* w) const { (void)w; }

  /// Restores state written by SaveState into a freshly constructed sink
  /// of the IDENTICAL configuration. Returns false on truncated or
  /// invalid data (the sink may then be partially overwritten and must be
  /// discarded). After a successful load the sink resumes the exact
  /// behaviour of the saved one, bit for bit.
  virtual bool LoadState(BinaryReader* r) {
    (void)r;
    return false;
  }
};

/// One shard's contribution to a cross-shard merged sample: the shard's
/// active-window occupancy plus one drawn sample set. The paper's bucket
/// constructions (Sections 1.3.1, 2, 3) keep per-shard state independent,
/// which is what makes this cheap to capture and exact to combine.
struct SamplerSnapshot {
  /// Number of active elements behind `sample` (exact for sequence windows
  /// and the oracles). Weights the cross-shard selection.
  uint64_t active = 0;
  /// Samples the source maintains (slots for with-replacement snapshots).
  uint64_t k = 0;
  /// True when `sample` is a uniform k-subset (without replacement) of the
  /// active elements; false when its slots are k independent uniform draws.
  bool without_replacement = false;
  /// One drawn sample set: exactly k items for with-replacement snapshots
  /// of a non-empty window, min(k, active) items without replacement.
  std::vector<Item> sample;

  /// Merges `other` into this snapshot: afterwards `sample` is distributed
  /// as one uniform draw (per the without_replacement flag) over the UNION
  /// of the two shards' active elements, and `active` is the union size.
  /// With replacement the merge selects per slot between the shards with
  /// probability proportional to their occupancies (slot independence is
  /// preserved because Theorems 2.1/3.9 build the k-sample as k independent
  /// copies); without replacement it allocates slots by a multivariate
  /// hypergeometric draw and takes uniform sub-subsets — both exact, using
  /// integer-rational coins only. Requires matching k and flags; shards
  /// with active == 0 merge as no-ops. The merge is associative in
  /// distribution, so folding N shards in any order is valid.
  Status MergeFrom(const SamplerSnapshot& other, Rng& rng);

  /// Rvalue overload: adopting a snapshot into an empty one moves the
  /// sample vector instead of copying it (the sharded merge loop's common
  /// first step). Identical semantics and RNG consumption otherwise.
  Status MergeFrom(SamplerSnapshot&& other, Rng& rng);
};

/// Abstract sliding-window sampler maintaining k samples.
class WindowSampler : public StreamSink {
 public:
  /// Draws the current sample set of the active window. May be called at
  /// ANY moment and must return a uniform random sample of the currently
  /// active elements; each call may consume fresh randomness.
  virtual std::vector<Item> Sample() = 0;

  /// Number of samples maintained.
  virtual uint64_t k() const = 0;

  /// True when this sampler knows its active-window occupancy and can
  /// capture Snapshot()s for cross-shard merging. Sequence-model paper
  /// samplers and the exact oracles are merge-capable; timestamp-model
  /// streaming samplers are not (the paper's Section 1.3.2 negative result:
  /// the occupancy n(t) is not exactly knowable in o(n) memory).
  virtual bool mergeable() const { return false; }

  /// Captures one drawn sample set plus the occupancy that weights it in
  /// a cross-shard merge. FailedPrecondition when !mergeable(). Consumes
  /// the same per-call randomness as Sample().
  virtual Result<SamplerSnapshot> Snapshot() {
    return Status::FailedPrecondition(std::string(name()) +
                                      ": sampler is not merge-capable");
  }
};

/// Snapshots every shard and folds them left to right with
/// SamplerSnapshot::MergeFrom, seeding the merge coins from `seed`: the
/// result is one uniform sample of the union of the shards' active
/// elements. Fails if `shards` is empty or any shard is not merge-capable.
Result<SamplerSnapshot> MergedSnapshot(std::span<WindowSampler* const> shards,
                                       uint64_t seed);

}  // namespace swsample

#endif  // SWSAMPLE_CORE_API_H_
