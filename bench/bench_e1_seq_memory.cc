// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E1 (Theorems 2.1 + 2.2): sequence-based window memory.
//
// Paper claim: our samplers use O(k) words INDEPENDENT of the window size
// n, deterministically. Chain sampling's footprint grows (randomized chain
// tails; k' units each hold a chain), and buffering the window (Zhang et
// al.) is Theta(n). The table reports the MAX words observed over a run of
// several window lengths for each (n, k).

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "apps/sink_spec.h"

namespace swsample::bench {
namespace {

constexpr const char* kSamplers[] = {"bop-seq-swr", "bop-seq-swor",
                                     "bdm-chain", "exact-seq"};

void Run() {
  Banner("E1: max memory words vs window size n (sequence-based windows)",
         "bop-seq-swr / bop-seq-swor are O(k), flat in n; exact buffer is "
         "Theta(n); chain is randomized");
  Row({"n", "k", "bop-swr", "bop-swor", "bdm-chain", "exact-buf"});
  for (uint64_t log_n : {10u, 12u, 14u, 16u, 18u}) {
    const uint64_t n = uint64_t{1} << log_n;
    for (uint64_t k : {1u, 16u, 64u}) {
      const uint64_t items = 4 * n;
      std::vector<std::string> cells = {U(n), U(k)};
      uint64_t seed = 1;
      for (const char* name : kSamplers) {
        SinkSpec config;
        config.window_n = n;
        config.k = k;
        config.seed = seed++;
        config.name = name;
        Sink sampler_sink = CreateSink(config).ValueOrDie();
        WindowSampler* sampler = sampler_sink.sampler;
        cells.push_back(
            U(MaxMemorySequenceRun(*sampler, items, 1 << 20, 9 + seed)));
      }
      Row(cells);
    }
  }
  std::printf(
      "\nshape check: bop columns are constant down each k-block while the\n"
      "exact buffer scales with n; chain exceeds bop and fluctuates.\n");
}

}  // namespace
}  // namespace swsample::bench

int main() {
  swsample::bench::Run();
  return 0;
}
