// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Experiment E6: per-element throughput of every sampler (google-benchmark).
// The paper's abstract criticizes over-sampling for "additional costs";
// this experiment quantifies observe-path cost (ns/element) across all
// implementations, plus the Sample() query cost, at n = 2^16.
//
// Sampler benchmarks are registered from the registry at startup — one
// Observe and one ObserveBatch benchmark per registered name — so a new
// sampler shows up here without editing this file. E15 (bench_e15_batch)
// covers the batch-size sweep in the shared table format.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/sink_spec.h"
#include "reservoir/algorithm_l.h"
#include "reservoir/reservoir.h"

namespace swsample {
namespace {

constexpr uint64_t kWindow = 1 << 16;
constexpr uint64_t kBatch = 1 << 10;

Sink BenchSampler(std::string name, uint64_t k) {
  SinkSpec spec;
  spec.name = std::move(name);
  spec.window_n = kWindow;
  spec.window_t = static_cast<Timestamp>(kWindow);
  spec.k = k;
  spec.seed = 7;
  return CreateSink(spec).ValueOrDie();
}

void DriveObserve(benchmark::State& state, WindowSampler& sampler) {
  uint64_t i = 0;
  Rng rng(1);
  for (auto _ : state) {
    sampler.Observe(Item{rng.NextU64(), i, static_cast<Timestamp>(i / 4)});
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}

void DriveObserveBatch(benchmark::State& state, WindowSampler& sampler) {
  Rng rng(1);
  std::vector<Item> batch(kBatch);
  std::vector<uint64_t> values(kBatch);  // pre-drawn per batch (FillU64)
  uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    rng.FillU64(values);
    for (uint64_t j = 0; j < kBatch; ++j) {
      batch[j] = Item{values[j], i, static_cast<Timestamp>(i / 4)};
      ++i;
    }
    state.ResumeTiming();
    sampler.ObserveBatch(std::span<const Item>(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}

void SamplerObserve(benchmark::State& state, std::string name) {
  Sink sink =
      BenchSampler(std::move(name), static_cast<uint64_t>(state.range(0)));
  DriveObserve(state, *sink.sampler);
}

void SamplerObserveBatch(benchmark::State& state, std::string name) {
  Sink sink =
      BenchSampler(std::move(name), static_cast<uint64_t>(state.range(0)));
  DriveObserveBatch(state, *sink.sampler);
}

}  // namespace

void RegisterSamplerBenchmarks() {
  for (const SinkInfo& info : RegisteredSinks(SinkKind::kSampler)) {
    const std::string name = info.name;
    const bool single = info.single_sample;
    auto* observe = benchmark::RegisterBenchmark(
        ("BM_Observe/" + name).c_str(),
        [name](benchmark::State& state) { SamplerObserve(state, name); });
    auto* batch = benchmark::RegisterBenchmark(
        ("BM_ObserveBatch/" + name).c_str(),
        [name](benchmark::State& state) { SamplerObserveBatch(state, name); });
    if (single) {
      observe->Arg(1);
      batch->Arg(1);
    } else {
      observe->Arg(1)->Arg(16);
      batch->Arg(1)->Arg(16);
    }
  }
}

namespace {

// Substrate comparison: Algorithm R vs Algorithm L (skip-based).
void BM_ReservoirAlgorithmR(benchmark::State& state) {
  KReservoir r(16);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    r.Observe(Item{i, i, 0}, rng);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_ReservoirAlgorithmR);

void BM_ReservoirAlgorithmL(benchmark::State& state) {
  SkipReservoir r(16);
  Rng rng(3);
  uint64_t i = 0;
  for (auto _ : state) {
    r.Observe(Item{i, i, 0}, rng);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_ReservoirAlgorithmL);

// Query-path cost.
void BM_SeqSwrSample(benchmark::State& state) {
  Sink sink = BenchSampler("bop-seq-swr", 16);
  WindowSampler* s = sink.sampler;
  for (uint64_t i = 0; i < 2 * kWindow; ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  for (auto _ : state) benchmark::DoNotOptimize(s->Sample());
}
BENCHMARK(BM_SeqSwrSample);

void BM_TsSworSample(benchmark::State& state) {
  SinkSpec spec;
  spec.name = "bop-ts-swor";
  spec.window_t = 1 << 12;
  spec.k = 16;
  spec.seed = 7;
  Sink sink = CreateSink(spec).ValueOrDie();
  WindowSampler* s = sink.sampler;
  for (uint64_t i = 0; i < (1 << 13); ++i) {
    s->Observe(Item{i, i, static_cast<Timestamp>(i)});
  }
  for (auto _ : state) benchmark::DoNotOptimize(s->Sample());
}
BENCHMARK(BM_TsSworSample);

}  // namespace
}  // namespace swsample

int main(int argc, char** argv) {
  swsample::RegisterSamplerBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
