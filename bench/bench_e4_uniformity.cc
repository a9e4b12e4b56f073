// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E4: uniformity of every sampler's output. The paper's
// correctness theorems say each sampler produces an exactly uniform sample
// of the active window; the harness runs a chi-square goodness-of-fit over
// tens of thousands of independent trials per sampler and prints the
// statistic, p-value and verdict. (Baselines are expected to pass too --
// the paper's improvement is about memory determinism, not distribution.)
//
// The sweep covers EVERY registered sampler, so a sampler added to the
// registry is picked up by this experiment automatically. Each sampler is
// checked twice: item-by-item Observe and batched ObserveBatch ingestion
// (ragged batch size straddling bucket boundaries), which must be
// distributionally identical.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "apps/sink_spec.h"
#include "stats/tests.h"

namespace swsample::bench {
namespace {

// Streams `len` rate-1 items (index == timestamp) through a fresh sampler
// per trial, counting the sampled window position; returns the chi-square
// against uniform. `batch` = 0 feeds item by item.
ChiSquareResult WindowUniformity(const char* name, uint64_t window,
                                 uint64_t len, uint64_t batch, int trials,
                                 uint64_t seed_base) {
  std::vector<uint64_t> counts(window, 0);
  std::vector<Item> items;
  items.reserve(len);
  for (uint64_t i = 0; i < len; ++i) {
    items.push_back(Item{i, i, static_cast<Timestamp>(i)});
  }
  for (int t = 0; t < trials; ++t) {
    SinkSpec config;
    config.window_n = window;
    config.window_t = static_cast<Timestamp>(window);
    config.k = 1;
    config.seed = seed_base + static_cast<uint64_t>(t);
    config.name = name;
    Sink s_sink = CreateSink(config).ValueOrDie();
    WindowSampler* s = s_sink.sampler;
    if (batch == 0) {
      for (const Item& item : items) s->Observe(item);
    } else {
      for (uint64_t pos = 0; pos < len; pos += batch) {
        const uint64_t take = std::min(batch, len - pos);
        s->ObserveBatch(std::span<const Item>(items.data() + pos, take));
      }
    }
    for (const Item& item : s->Sample()) ++counts[item.index - (len - window)];
  }
  return ChiSquareUniform(counts);
}

void Run() {
  Banner("E4: chi-square uniformity of every registered sampler",
         "all samplers produce exactly uniform window samples, batched or "
         "not");
  Row({"sampler", "model", "path", "window", "trials", "chi2", "p-value",
       "verdict"});
  const uint64_t window = 16, len = 57;
  const int trials = 40000;

  uint64_t seed_base = 1000000;
  for (const SinkInfo& spec : RegisteredSinks(SinkKind::kSampler)) {
    const char* model =
        spec.model == WindowModel::kSequence ? "seq" : "ts";
    for (uint64_t batch : {uint64_t{0}, uint64_t{13}}) {
      auto r = WindowUniformity(spec.name, window, len, batch, trials,
                                seed_base);
      seed_base += 1000000;
      Row({spec.name, model, batch == 0 ? "item" : "batch", U(window),
           U(static_cast<uint64_t>(trials)), F(r.statistic, 1),
           Sci(r.p_value), r.p_value > 1e-4 ? "PASS" : "FAIL"});
    }
  }

  std::printf("\nshape check: every row PASSes (p above the 1e-4 bar).\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
