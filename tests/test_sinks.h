// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Test helpers over the sink table (apps/sink_spec.h): owning typed
// pointers out of CreateSink and RestoreSink, so a test can hold a sampler
// or an estimator by unique_ptr and swap it for its restored copy.

#ifndef SWSAMPLE_TESTS_TEST_SINKS_H_
#define SWSAMPLE_TESTS_TEST_SINKS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "apps/sink_spec.h"

namespace swsample {

/// `spec` renamed to `name`: one base spec serves several sinks.
inline SinkSpec Named(SinkSpec spec, std::string_view name) {
  spec.name = std::string(name);
  return spec;
}

/// Moves the sampler out of `sink`; null when `sink` holds an estimator.
inline std::unique_ptr<WindowSampler> TakeSampler(Sink sink) {
  if (sink.sampler == nullptr) return nullptr;
  sink.sink.release();
  return std::unique_ptr<WindowSampler>(sink.sampler);
}

/// Moves the estimator out of `sink`; null when `sink` holds a sampler.
inline std::unique_ptr<WindowEstimator> TakeEstimator(Sink sink) {
  if (sink.estimator == nullptr) return nullptr;
  sink.sink.release();
  return std::unique_ptr<WindowEstimator>(sink.estimator);
}

/// CreateSink(spec) as an owning sampler pointer.
inline Result<std::unique_ptr<WindowSampler>> MakeSampler(
    const SinkSpec& spec) {
  auto sink = CreateSink(spec);
  if (!sink.ok()) return sink.status();
  if (sink.value().sampler == nullptr) {
    return Status::InvalidArgument(spec.name + " is not a sampler");
  }
  return TakeSampler(std::move(sink).ValueOrDie());
}

/// CreateSink(spec) as an owning estimator pointer.
inline Result<std::unique_ptr<WindowEstimator>> MakeEstimator(
    const SinkSpec& spec) {
  auto sink = CreateSink(spec);
  if (!sink.ok()) return sink.status();
  if (sink.value().estimator == nullptr) {
    return Status::InvalidArgument(spec.name + " is not an estimator");
  }
  return TakeEstimator(std::move(sink).ValueOrDie());
}

/// RestoreSink(blob) as an owning sampler pointer.
inline Result<std::unique_ptr<WindowSampler>> RestoreAsSampler(
    std::string_view blob) {
  auto restored = RestoreSink(blob);
  if (!restored.ok()) return restored.status();
  if (restored.value().sink.sampler == nullptr) {
    return Status::InvalidArgument("envelope does not hold a sampler");
  }
  return TakeSampler(std::move(restored.value().sink));
}

/// RestoreSink(blob) as an owning estimator pointer.
inline Result<std::unique_ptr<WindowEstimator>> RestoreAsEstimator(
    std::string_view blob) {
  auto restored = RestoreSink(blob);
  if (!restored.ok()) return restored.status();
  if (restored.value().sink.estimator == nullptr) {
    return Status::InvalidArgument("envelope does not hold an estimator");
  }
  return TakeEstimator(std::move(restored.value().sink));
}

}  // namespace swsample

#endif  // SWSAMPLE_TESTS_TEST_SINKS_H_
