// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Tracing for the benchmark's traced run: an in-memory span log, a
// forwarding StreamSink and a SinkSerializer wrapper that record a span
// around every call the benchmark makes into a layer, and the self-time
// computation (a span's duration minus the part of it its children cover).
// Spans stay in memory until the run ends and are then written out as CSV.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/api.h"
#include "stream/checkpoint.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span covers: a pass of a workload, or one call into a layer.
enum class Layer : uint8_t {
  kPass,        ///< one ingest of the whole input (root)
  kDriver,      ///< a StreamDriver / ShardedStreamDriver Drive* call
  kCore,        ///< a sampler's ObserveBatch / Observe / AdvanceTime
  kApps,        ///< an estimator's ObserveBatch / Observe / AdvanceTime
  kKeyed,       ///< the keyed engine's ObserveBatch / Observe / AdvanceTime
  kSerialize,   ///< one SinkSerializer call inside a checkpoint commit
  kQuery,       ///< a query the benchmark makes after or during a drive
  kCount,
};

const char* LayerName(Layer layer);

/// One recorded interval. `parent` is a SpanId, or kNoParent for roots.
struct Span {
  Layer layer = Layer::kPass;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans in per-thread lanes: each lane is appended to by one thread at a
/// time, and lanes are only added or read while no drive is running, so
/// recording needs no lock.
class TraceLog {
 public:
  /// Packs (lane, index in lane).
  using SpanId = uint64_t;
  static constexpr SpanId kNoParent = ~0ULL;

  explicit TraceLog(uint32_t lanes) : lanes_(lanes) {}

  /// Starts a span now; Close() sets its end.
  SpanId Open(uint32_t lane, Layer layer, SpanId parent);
  void Close(SpanId id) { At(id).end_ns = NowNs(); }
  void Record(uint32_t lane, Layer layer, SpanId parent, int64_t start_ns,
              int64_t end_ns) {
    lanes_[lane].push_back({layer, parent, start_ns, end_ns});
  }

  /// Per-layer totals: summed duration, summed self time, and every
  /// span's duration (for percentiles).
  struct LayerTimes {
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
  };
  std::vector<LayerTimes> Summarize() const;

  uint64_t size() const;

  /// Writes "lane,index,layer,parent_lane,parent_index,start_ns,end_ns"
  /// rows. False on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  Span& At(SpanId id) { return lanes_[id >> 32][id & 0xffffffffULL]; }

  std::deque<std::vector<Span>> lanes_;
};

/// Forwards every StreamSink call to `inner`, recording a `layer` span
/// around each ingest call in `lane` under the span `*parent` (read when
/// the call starts, so the caller can retarget it between drives).
class TracedSink final : public swsample::StreamSink {
 public:
  TracedSink(swsample::StreamSink& inner, TraceLog& log, uint32_t lane,
             Layer layer, const TraceLog::SpanId* parent)
      : inner_(inner), log_(log), lane_(lane), layer_(layer),
        parent_(parent) {}

  void Observe(const swsample::Item& item) override {
    const int64_t start = NowNs();
    inner_.Observe(item);
    log_.Record(lane_, layer_, *parent_, start, NowNs());
  }
  void ObserveBatch(std::span<const swsample::Item> items) override {
    const int64_t start = NowNs();
    inner_.ObserveBatch(items);
    log_.Record(lane_, layer_, *parent_, start, NowNs());
  }
  void AdvanceTime(swsample::Timestamp now) override {
    const int64_t start = NowNs();
    inner_.AdvanceTime(now);
    log_.Record(lane_, layer_, *parent_, start, NowNs());
  }
  uint64_t MemoryWords() const override { return inner_.MemoryWords(); }
  uint64_t RetainedBytes() const override { return inner_.RetainedBytes(); }
  const char* name() const override { return inner_.name(); }
  bool persistable() const override { return inner_.persistable(); }
  void SaveState(swsample::BinaryWriter* w) const override {
    inner_.SaveState(w);
  }
  bool LoadState(swsample::BinaryReader* r) override {
    return inner_.LoadState(r);
  }

  swsample::StreamSink& inner() const { return inner_; }

 private:
  swsample::StreamSink& inner_;
  TraceLog& log_;
  uint32_t lane_;
  Layer layer_;
  const TraceLog::SpanId* parent_;
};

/// Wraps `inner` so each call records a kSerialize span in `lane` under
/// `*parent`. The serializers bind concrete sink types, so a TracedSink
/// argument is unwrapped first.
swsample::SinkSerializer TracedSerializer(swsample::SinkSerializer inner,
                                          TraceLog& log, uint32_t lane,
                                          const TraceLog::SpanId* parent);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
