// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E10 (Corollary 5.3): triangle counting over sliding edge
// windows via the Buriol et al. estimator, swept over the estimator
// registry's substrate grid — including the TIMESTAMP substrate, which is
// new capability the generalized payload unit enables: triangle counting
// over "the last t0 seconds of edges" rather than the last n edges. The
// workload is a dense random graph whose window is organically rich in
// triangles; ground truth is brute force over the window's distinct edges
// with multi-word adjacency bitsets.

#include <cmath>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "apps/sink_spec.h"
#include "apps/triangles.h"
#include "bench/bench_util.h"
#include "stream/driver.h"
#include "util/rng.h"

namespace swsample::bench {
namespace {

/// Exact triangle count over the distinct edges of the window, any V.
uint64_t ExactTriangles(const std::deque<uint64_t>& window_edges,
                        uint32_t v) {
  const uint32_t words = (v + 63) / 64;
  std::vector<uint64_t> adj(static_cast<size_t>(v) * words, 0);
  std::set<uint64_t> distinct(window_edges.begin(), window_edges.end());
  for (uint64_t e : distinct) {
    uint32_t a, b;
    DecodeEdge(e, &a, &b);
    adj[a * words + b / 64] |= uint64_t{1} << (b % 64);
    adj[b * words + a / 64] |= uint64_t{1} << (a % 64);
  }
  // Sum over edges of |common neighborhood|: each triangle is counted once
  // per incident edge, i.e. 3 times.
  uint64_t incidences = 0;
  for (uint64_t e : distinct) {
    uint32_t a, b;
    DecodeEdge(e, &a, &b);
    for (uint32_t w = 0; w < words; ++w) {
      incidences += static_cast<uint64_t>(
          __builtin_popcountll(adj[a * words + w] & adj[b * words + w]));
    }
  }
  return incidences / 3;
}

std::vector<Item> RandomEdgeStream(uint32_t v, uint64_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<Item> items(len);
  for (uint64_t i = 0; i < len; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.UniformIndex(v));
    uint32_t b;
    do {
      b = static_cast<uint32_t>(rng.UniformIndex(v));
    } while (b == a);
    items[i] = Item{EncodeEdge(a, b), i, static_cast<Timestamp>(i)};
  }
  return items;
}

void Run() {
  Banner("E10: triangles over a sliding window of 512 edges (V=48, dense "
         "random graph), estimator x substrate sweep",
         "Buriol-style estimate tracks the exact windowed count; "
         "concentration improves with r");
  const uint32_t v = 48;
  const uint64_t n = 512;
  const uint64_t len = 3 * n;

  // Workload: uniform random edges over V=48 (window covers ~37% of the
  // 1128 possible edges, so the window graph is dense and organically rich
  // in triangles; mean multiplicity of a present edge is ~1.25). One edge
  // per time step, so the sequence window of n edges and the timestamp
  // window of t0 = n steps hold the SAME edges — the substrate sweep is
  // directly comparable across models.
  std::vector<Item> items = RandomEdgeStream(v, len, 77);

  std::deque<uint64_t> window;
  for (const Item& item : items) {
    window.push_back(item.value);
    if (window.size() > n) window.pop_front();
  }
  const uint64_t exact = ExactTriangles(window, v);

  StreamDriver driver;
  Row({"substrate", "r", "exact-T3", "estimate", "ratio", "words"});
  const std::vector<uint64_t> full = {256, 1024, 4096, 16384};
  const std::vector<uint64_t> smoke = {256};
  for (const char* substrate :
       {"bop-seq-single", "exact-seq", "bop-ts-single"}) {
    for (uint64_t r : (SmokeMode() ? smoke : full)) {
      SinkSpec config;
      config.substrate = substrate;
      config.window_n = n;
      config.window_t = static_cast<Timestamp>(n);
      config.r = r;
      config.num_vertices = v;
      config.seed = Rng::ForkSeed(500, r);
      config.name = "buriol-triangles";
      Sink est_sink = CreateSink(config).ValueOrDie();
      WindowEstimator* est = est_sink.estimator;
      DriveReport drive = driver.Drive(std::span<const Item>(items), *est);
      const double estimate = est->Estimate().value;
      Row({substrate, U(r), U(exact), F(estimate, 1),
           F(estimate / static_cast<double>(exact), 3),
           U(drive.memory_words)});
    }
  }
  std::printf(
      "\nshape check: within each substrate block the ratio concentrates\n"
      "as r grows near ~1 times the window's mean triangle-edge\n"
      "multiplicity (~1.2-1.4 here): repeated copies of an edge whose\n"
      "closers reappear later each count as a detection opportunity in\n"
      "the multiset window. The bop-ts-single block (timestamp window of\n"
      "t0 = 512 steps, same active edges) agrees with the sequence rows\n"
      "up to its O(log n)-candidate variance — Corollary 5.3 on the\n"
      "timestamp model.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
