// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E12 (Theorem 5.1 client): windowed quantile estimation, swept
// over the estimator registry's substrate grid ("dkw-quantile" x paper
// SWOR, the chain-sampling baseline, and the exact-window oracle). For a
// drifting value distribution the table reports the exact window median /
// p90 against the sampled estimates at several sample sizes k, with the
// DKW-predicted rank error alongside the measured one — the point being
// that the entire guarantee transfers to sliding windows at O(k) words on
// the paper substrate, where the baselines pay randomized or O(n) memory.

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "apps/sink_spec.h"
#include "apps/quantiles.h"
#include "bench/bench_util.h"
#include "stream/driver.h"

namespace swsample::bench {
namespace {

double RankOf(uint64_t value, std::vector<uint64_t> window) {
  std::sort(window.begin(), window.end());
  auto it = std::lower_bound(window.begin(), window.end(), value);
  return static_cast<double>(it - window.begin()) /
         static_cast<double>(window.size());
}

void Run() {
  Banner("E12: windowed quantiles from k-samples, estimator x substrate "
         "sweep through the registry",
         "rank error tracks the DKW bound eps = sqrt(ln(2/0.05)/(2k)); "
         "memory stays O(k) on the paper substrate");
  const uint64_t n = Scaled(1 << 15);
  Row({"substrate", "k", "dkw-eps", "q", "exact", "estimate", "rank-err",
       "words"});

  // Drifting lognormal-ish integer values.
  Rng rng(5);
  std::vector<Item> items(3 * n);
  for (uint64_t i = 0; i < items.size(); ++i) {
    uint64_t base = 1000 + i / 64;  // drift
    items[i] = Item{base + rng.UniformIndex(1 + i % 997), i,
                    static_cast<Timestamp>(i)};
  }
  std::deque<uint64_t> window_q;
  for (const Item& item : items) {
    window_q.push_back(item.value);
    if (window_q.size() > n) window_q.pop_front();
  }
  std::vector<uint64_t> window(window_q.begin(), window_q.end());
  std::vector<uint64_t> sorted = window;
  std::sort(sorted.begin(), sorted.end());

  StreamDriver driver;
  const std::vector<uint64_t> full = {64, 256, 1024, 4096};
  const std::vector<uint64_t> smoke = {64};
  for (const char* substrate : {"bop-seq-swor", "bdm-chain", "exact-seq"}) {
    for (uint64_t k : (SmokeMode() ? smoke : full)) {
      const double eps = std::sqrt(std::log(2.0 / 0.05) / (2.0 * k));
      SinkSpec config;
      config.substrate = substrate;
      config.window_n = n;
      config.r = k;
      config.seed = Rng::ForkSeed(40, k);
      config.name = "dkw-quantile";
      Sink est_sink = CreateSink(config).ValueOrDie();
      WindowEstimator* est = est_sink.estimator;
      driver.Drive(std::span<const Item>(items), *est);
      // One drive per cell; both quantiles come from ONE sample draw
      // (consistent ranks) through the concrete estimator's multi-q
      // query. The sink table hands back the only type behind this name.
      auto* quantiles = dynamic_cast<QuantileEstimator*>(est);
      const std::vector<uint64_t> estimates =
          quantiles->Quantiles({0.5, 0.9});
      const double qs[] = {0.5, 0.9};
      for (int i = 0; i < 2; ++i) {
        const double q = qs[i];
        const uint64_t exact =
            sorted[static_cast<size_t>(q * static_cast<double>(n - 1))];
        Row({substrate, U(k), F(eps, 4), F(q, 2), U(exact),
             U(estimates[i]),
             F(std::fabs(RankOf(estimates[i], window) - q), 4),
             U(est->MemoryWords())});
      }
    }
  }
  std::printf(
      "\nshape check: rank-err stays below (roughly) dkw-eps and shrinks\n"
      "like 1/sqrt(k) in every substrate block — the DKW guarantee is\n"
      "substrate-independent, which IS Theorem 5.1. The words column is\n"
      "~6k+O(1) for bop-seq-swor (independent of the 32768-item window),\n"
      "randomized O(k log n) for bdm-chain, O(n) for the oracle.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
