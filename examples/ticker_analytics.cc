// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Ticker analytics: fixed-size windows over a fast trade feed.
//
//   build/examples/ticker_analytics
//
// Maintains, over the last 16384 trades:
//  * a windowed mean price: a single-level biased-mean over a 128-sample,
//    i.e. the sample mean run on a window sampler (Theorem 5.1);
//  * the "repeat rate" (self-join size F_2 of the symbol distribution,
//    Corollary 5.2) which spikes when one symbol dominates trading;
//  * the symbol entropy (Corollary 5.4) which drops at the same moment.
// A mid-stream "flash event" concentrates trading in one symbol to show
// all three estimates reacting.

#include <cstdio>
#include <vector>

#include "apps/sink_spec.h"
#include "stream/workload.h"
#include "util/rng.h"

using namespace swsample;

namespace {

Sink MakeSink(const char* text) {
  return CreateSink(ParseSinkSpec(text).ValueOrDie()).ValueOrDie();
}

}  // namespace

int main() {
  const uint64_t n = 16384;
  // Every estimator comes from the sink table; swap the @substrate to run
  // one over any other compatible sampler.
  Sink price_mean =
      MakeSink("biased-mean@bop-seq-swr,n=16384,r=128,seed=1,bias=16384:1");
  Sink repeat_rate = MakeSink("ams-fk@bop-seq-single,n=16384,r=512,seed=2");
  Sink entropy = MakeSink("ccm-entropy@bop-seq-single,n=16384,r=512,seed=3");

  const uint64_t total = 6 * n;
  const std::vector<Item> trades =
      WorkloadGenerator::Create("constant@zipf,rate=1,domain=64,alpha=0.9", 11)
          .ValueOrDie()
          ->Take(total);
  Rng rng(11);
  for (uint64_t i = 0; i < total; ++i) {
    // Flash event in the middle third: 90% of trades hit symbol 7 and the
    // price dives from ~500 to ~300.
    const bool flash = i > 2 * total / 5 && i < 3 * total / 5;
    uint64_t symbol = (flash && rng.Bernoulli(0.9)) ? 7 : trades[i].value;
    uint64_t price = (flash ? 300 : 500) + rng.UniformIndex(20);

    price_mean.sink->Observe(Item{price, i, static_cast<Timestamp>(i)});
    repeat_rate.sink->Observe(Item{symbol, i, static_cast<Timestamp>(i)});
    entropy.sink->Observe(Item{symbol, i, static_cast<Timestamp>(i)});

    if ((i + 1) % n == 0) {
      std::printf(
          "trade %6lu %s  mean-price=%6.1f  F2(symbols)=%10.0f  "
          "H(symbols)=%5.2f bits\n",
          (unsigned long)(i + 1), flash ? "[flash]" : "       ",
          price_mean.estimator->Estimate().value,
          repeat_rate.estimator->Estimate().value,
          entropy.estimator->Estimate().value);
    }
  }
  std::printf(
      "\nduring the flash event the windowed mean price falls, F2 spikes\n"
      "(self-join size grows when one symbol dominates) and entropy drops;\n"
      "all three recover as the event leaves the window.\n");
  return 0;
}
