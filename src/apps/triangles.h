// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Triangle counting over sliding edge windows — Corollary 5.3.
//
// Buriol-Frahling-Leonardi-Marchetti-Spaccamela-Sohler (PODS'06) style
// one-pass estimator: sample a uniform edge (a, b) of the window, a
// uniform third vertex v from V \ {a, b}, and watch whether BOTH closing
// edges (a, v) and (b, v) appear afterwards. A triangle is detectable only
// via its first-arriving edge (the closers must come later), so on
// distinct-edge windows the success probability is exactly
// T3 / (|E_W| * (|V| - 2)) and
//
//   T3_hat = beta * |E_W| * (|V| - 2),   beta = success frequency.
//
// Corollary 5.3 transfers this to sliding windows by swapping the reservoir
// for a window sampler; the "watch afterwards" state is again a forward
// payload, valid on windows because arrivals after an active edge are
// active. Registry name "buriol-triangles", over any payload-capable
// substrate — including, via the generalized timestamp payload unit, edge
// windows defined by TIME rather than edge count.
//
// Edges are encoded into Item::value as (min(a,b) << 32) | max(a,b).

#ifndef SWSAMPLE_APPS_TRIANGLES_H_
#define SWSAMPLE_APPS_TRIANGLES_H_

#include <cstdint>
#include <memory>

#include "apps/estimator.h"
#include "apps/payload_substrate.h"
#include "stream/item.h"
#include "util/rng.h"
#include "util/status.h"

namespace swsample {

/// Encodes an undirected edge into an Item value.
uint64_t EncodeEdge(uint32_t a, uint32_t b);

/// Decodes an Item value into its two endpoints (lo, hi).
void DecodeEdge(uint64_t value, uint32_t* a, uint32_t* b);

/// Streaming triangle-count estimator over a window of edges
/// ("buriol-triangles").
class TriangleEstimator final : public WindowEstimator {
 public:
  /// The watch state of one sampled edge: a chosen apex vertex and which
  /// of the two closing edges have been seen since.
  struct WatchPayload {
    uint32_t a = 0, b = 0, v = 0;
    bool found_av = false, found_bv = false;
  };
  struct OnSampled {
    Rng* rng;
    uint32_t num_vertices;
    WatchPayload operator()(const Item& item) const;
  };
  struct OnArrival {
    void operator()(WatchPayload& p, const Item& item) const;
  };
  using Substrate = PayloadSubstrate<WatchPayload, OnSampled, OnArrival>;

  /// Creates an estimator over a vertex universe of size `num_vertices`
  /// (>= 3), averaging `params.r` independent units. Edge values must be
  /// EncodeEdge() encodings of two distinct vertices below num_vertices.
  static Result<std::unique_ptr<TriangleEstimator>> Create(
      const Substrate::Params& params, uint32_t num_vertices);

  void Observe(const Item& item) override { substrate_->Observe(item); }
  void ObserveBatch(std::span<const Item> items) override {
    substrate_->ObserveBatch(items);
  }
  void AdvanceTime(Timestamp now) override { substrate_->AdvanceTime(now); }
  EstimateReport Estimate() override;
  uint64_t MemoryWords() const override { return substrate_->MemoryWords(); }
  uint64_t RetainedBytes() const override {
    return sizeof(*this) + sizeof(Substrate) + substrate_->RetainedBytes();
  }
  const char* name() const override { return "buriol-triangles"; }
  bool persistable() const override { return true; }
  void SaveState(BinaryWriter* w) const override;
  bool LoadState(BinaryReader* r) override;

 private:
  TriangleEstimator(uint32_t num_vertices, uint64_t seed)
      : num_vertices_(num_vertices),
        // Top-bit stream id: disjoint from the substrate's unit streams
        // (ForkSeed(seed, 2 + i)) for any realistic unit count r.
        vertex_rng_(Rng::ForkSeed(seed, uint64_t{1} << 63)) {}

  uint32_t num_vertices_;
  Rng vertex_rng_;  // drives the apex choices (independent of reservoirs)
  // Built after vertex_rng_ so the functors can point at it; the estimator
  // lives behind a unique_ptr, so the pointer stays valid.
  std::unique_ptr<Substrate> substrate_;
};

/// Wire codec for the triangle watch payload (see
/// apps/payload_substrate.h for the CountPayload counterpart).
inline void SavePayload(const TriangleEstimator::WatchPayload& p,
                        BinaryWriter* w) {
  w->PutU64(p.a);
  w->PutU64(p.b);
  w->PutU64(p.v);
  w->PutBool(p.found_av);
  w->PutBool(p.found_bv);
}
inline bool LoadPayload(BinaryReader* r, TriangleEstimator::WatchPayload* p) {
  uint64_t a = 0, b = 0, v = 0;
  if (!r->GetU64(&a) || !r->GetU64(&b) || !r->GetU64(&v) ||
      !r->GetBool(&p->found_av) || !r->GetBool(&p->found_bv)) {
    return false;
  }
  p->a = static_cast<uint32_t>(a);
  p->b = static_cast<uint32_t>(b);
  p->v = static_cast<uint32_t>(v);
  // The apex is a third vertex distinct from both endpoints.
  return a <= 0xffffffffu && b <= 0xffffffffu && v <= 0xffffffffu &&
         p->a != p->b && p->v != p->a && p->v != p->b;
}
/// Checkpoint consistency: the watched edge is the sampled item's edge.
inline bool PayloadMatchesItem(const TriangleEstimator::WatchPayload& p,
                               const Item& item) {
  uint32_t a = 0, b = 0;
  DecodeEdge(item.value, &a, &b);
  return p.a == a && p.b == b;
}

}  // namespace swsample

#endif  // SWSAMPLE_APPS_TRIANGLES_H_
